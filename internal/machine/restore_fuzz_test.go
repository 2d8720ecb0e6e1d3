package machine

import (
	"encoding/binary"
	"flag"
	"os"
	"testing"

	"smtpsim/internal/pipeline"
)

var updateSeed = flag.Bool("update-seed", false, "rewrite the FuzzMachineRestore seed snapshot")

// fuzzSeedPath holds a real snapshot of fuzzMachine at cycle fuzzSeedAt,
// the seed of FuzzMachineRestore. After a snapshot format change,
// regenerate it with
//
//	go test ./internal/machine -run TestFuzzSeedRestores -update-seed
const (
	fuzzSeedPath = "testdata/fuzz/smtp1node.snap"
	fuzzSeedAt   = 256
)

// fuzzMachine builds the restore target: a 1-node SMTp machine whose
// caches and TLBs are shrunk so its snapshot stays small, running a
// private load/ALU/store stream.
func fuzzMachine() *Machine {
	m := New(Config{Model: SMTp, Nodes: 1, AppThreads: 1, PipeTweak: func(c *pipeline.Config) {
		c.L1I.Size, c.L1D.Size, c.L2.Size, c.TLBEntries = 1024, 1024, 4096, 8
	}})
	m.SetSource(0, &sliceSource{ins: privateStream(0, 12)})
	return m
}

func seedSnapshot(t testing.TB) []byte {
	t.Helper()
	m := fuzzMachine()
	if ran, done := m.Run(fuzzSeedAt); done || ran != fuzzSeedAt {
		t.Fatalf("ran %d cycles, done=%v; want to pause mid-run at %d", ran, done, fuzzSeedAt)
	}
	b, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// restoreNoPanic restores b into a fresh fuzzMachine, failing t if
// Restore panics instead of returning.
func restoreNoPanic(t testing.TB, b []byte) error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Restore panicked: %v", r)
		}
	}()
	return fuzzMachine().Restore(b)
}

// TestFuzzSeedRestores checks that the committed fuzz seed is still a
// snapshot the current code restores without error.
func TestFuzzSeedRestores(t *testing.T) {
	if *updateSeed {
		if err := os.WriteFile(fuzzSeedPath, seedSnapshot(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(fuzzSeedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreNoPanic(t, b); err != nil {
		t.Fatalf("seed snapshot no longer restores (regenerate it with -update-seed): %v", err)
	}
}

// TestRestoreCorruptWordsNeverPanic overwrites each 8-byte word at the
// first 400 offsets of a real snapshot with large values. The header's
// clock, the clocked-component count, the sync and network sections and
// the first node's memory slabs live there; such corruptions used to
// panic when a restored event fell before the restored clock, and to
// exhaust memory when a count or slab index sized an allocation. Restore
// must return, with an error or without.
func TestRestoreCorruptWordsNeverPanic(t *testing.T) {
	b := seedSnapshot(t)
	c := make([]byte, len(b))
	rejected := 0
	for off := 0; off < 400; off++ {
		for _, v := range []uint64{^uint64(0), 1 << 62, 1 << 40, 1<<31 - 1} {
			copy(c, b)
			binary.LittleEndian.PutUint64(c[off:], v)
			if restoreNoPanic(t, c) != nil {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was rejected")
	}
}

// FuzzMachineRestore feeds mutated snapshots to Restore, which must return
// an error or succeed, never panic.
func FuzzMachineRestore(f *testing.F) {
	seed, err := os.ReadFile(fuzzSeedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		_ = fuzzMachine().Restore(b)
	})
}
