package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/cpu.pprof is a 1.2 s CPU profile of an smtp32_serial pass. The
// expected per-layer sample counts below were read off
// `go tool pprof -sample_index=samples -top testdata/cpu.pprof` by summing
// flat samples per package.
func TestAttributeFixture(t *testing.T) {
	p, err := readCPUProfile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	a := p.attribute()
	want := map[string]int64{
		"pipeline": 71, "sim": 10, "memctrl": 7, "cache": 5, "runtime": 4,
		"isa": 3, "stats": 3, "bpred": 2, "workload": 1,
	}
	if a.total != 106 {
		t.Errorf("total samples = %d, want 106", a.total)
	}
	for layer, n := range want {
		if a.flat[layer] != n {
			t.Errorf("%s: %d samples, want %d", layer, a.flat[layer], n)
		}
	}
	for layer, n := range a.flat {
		if _, ok := want[layer]; !ok && n != 0 {
			t.Errorf("unexpected layer %s with %d samples", layer, n)
		}
	}

	m := layerMetrics(nil, []*passResult{{wall: 1}}, 0, a, runtimeSample{}, 0)
	var sum float64
	for _, d := range perLayer {
		if len(d.name) > len(".cpu_share") && d.name[len(d.name)-len(".cpu_share"):] == ".cpu_share" {
			sum += m[d.name]
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
}

func TestLeafPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"smtpsim/internal/pipeline.(*tlb).lookup":          "pipeline",
		"smtpsim/internal/sim.(*Engine).Run.func1":         "sim",
		"smtpsim/internal/core.RunWorkloadContext":         "core",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/atomic.(*Uint32).CompareAndSwap": "runtime",
		"runtime/internal/syscall.Syscall6":                "runtime",
		"sync/atomic.(*Int64).Add":                         "other",
		"net/http.(*conn).serve":                           "other",
		"main.main":                                        "other",
		"smtpsim/perfbench.run":                            "other",
		"":                                                 "other",
	} {
		if got := leafPackage(fn); got != want {
			t.Errorf("leafPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: samples
Duration: 1s, Total samples = 7
-----------+-------------------------------------------------------
    thread:  worker
         5   smtpsim/internal/pipeline.(*tlb).lookup (inline)
             smtpsim/internal/pipeline.(*Pipeline).issue
-----------+-------------------------------------------------------
         2   runtime.mallocgc
-----------+-------------------------------------------------------
`
	p, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"smtpsim/internal/pipeline.(*tlb).lookup", "smtpsim/internal/pipeline.(*Pipeline).issue"},
		{"runtime.mallocgc"},
	}
	if !reflect.DeepEqual(p.stacks, want) || !reflect.DeepEqual(p.counts, []int64{5, 2}) {
		t.Errorf("stacks %q counts %v; want %q, [5 2]", p.stacks, p.counts, want)
	}
	if _, err := parseTraces([]byte("not a profile\n")); err == nil {
		t.Error("parseTraces accepted output without stacks")
	}
}

func TestReadCPUProfileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pprof")
	if err := os.WriteFile(path, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCPUProfile(path); err == nil {
		t.Error("readCPUProfile accepted a file that is not a profile")
	}
}
