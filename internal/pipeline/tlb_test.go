package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/isa"
	"smtpsim/internal/snapshot"
)

func TestTLBHitMissLRU(t *testing.T) {
	tb := newTLB(2)
	if tb.lookup(0) {
		t.Fatal("cold lookup must miss")
	}
	if !tb.lookup(100) {
		t.Fatal("same page must hit")
	}
	tb.lookup(addrmap.PageSize)     // second entry
	tb.lookup(0)                    // page 0 now MRU
	tb.lookup(3 * addrmap.PageSize) // evicts page 1 (LRU), becomes MRU
	if tb.lookup(addrmap.PageSize) {
		t.Fatal("LRU page must have been evicted")
	}
	// That miss refilled page 1 over the then-LRU page 0; the MRU page 3
	// must have survived both evictions.
	if !tb.lookup(3 * addrmap.PageSize) {
		t.Fatal("MRU page must survive")
	}
	if tb.Hits == 0 || tb.Misses == 0 {
		t.Fatal("statistics not counted")
	}
}

func TestDTLBMissAddsLatency(t *testing.T) {
	r := newRig(1, false)
	th := r.p.threads[0]
	if got := r.p.dtlbCheck(th, 0x4000); got == 0 {
		t.Fatal("cold DTLB access must pay the walk")
	}
	if got := r.p.dtlbCheck(th, 0x4008); got != 0 {
		t.Fatal("second access to the page must hit")
	}
}

func TestProtocolThreadBypassesTLBs(t *testing.T) {
	r := newRig(1, true)
	pt := r.p.threads[r.p.ProtoTID()]
	// Directory addresses via the protocol thread never touch the DTLB.
	if got := r.p.dtlbCheck(pt, addrmap.DirBase+0x40); got != 0 {
		t.Fatal("protocol accesses are unmapped: no TLB")
	}
	if r.p.dtlb.Misses != 0 {
		t.Fatal("protocol access polluted the DTLB")
	}
	if !r.p.itlbCheck(pt, addrmap.CodeBase, 0) {
		t.Fatal("protocol fetch must not consult the ITLB")
	}
}

func TestDirectoryRegionBypassesDTLB(t *testing.T) {
	r := newRig(1, false)
	th := r.p.threads[0]
	if got := r.p.dtlbCheck(th, addrmap.DirBase); got != 0 {
		t.Fatal("unmapped region must not translate")
	}
}

func TestTLBDisabled(t *testing.T) {
	eng, down, syn := newRig(1, false).eng, &mockDown{}, &alwaysSync{ready: true}
	_ = eng
	cfg := DefaultConfig(1, false)
	cfg.TLBEntries = 0
	p := New(cfg, newRig(1, false).eng, down, syn)
	if got := p.dtlbCheck(p.threads[0], 0x1000); got != 0 {
		t.Fatal("disabled TLB must never stall")
	}
}

func TestITLBMissStallsFetch(t *testing.T) {
	r := newRig(1, false)
	ins := prog(0x100000, aluChain(4)...)
	r.warm(ins)
	r.p.SetSource(0, &sliceSource{ins: ins})
	// First fetch attempt walks the ITLB.
	r.run(3)
	if r.p.threads[0].fetchStallUntil == 0 {
		t.Fatal("cold ITLB miss must stall fetch")
	}
	r.runUntilDone(t, 1000)
	if r.p.itlb.Misses == 0 {
		t.Fatal("ITLB miss not counted")
	}
	_ = isa.OpNop
}

// refTLB is the original linear-scan LRU TLB, kept as the reference model
// the indexed TLB must match call for call.
type refTLB struct {
	pages        []uint64
	valid        []bool
	stamp        []uint64
	clock        uint64
	last         int
	Hits, Misses uint64
}

func newRefTLB(entries int) *refTLB {
	return &refTLB{
		pages: make([]uint64, entries),
		valid: make([]bool, entries),
		stamp: make([]uint64, entries),
	}
}

func (t *refTLB) lookup(addr uint64) bool {
	page := addrmap.PageOf(addr)
	t.clock++
	if l := t.last; t.valid[l] && t.pages[l] == page {
		t.stamp[l] = t.clock
		t.Hits++
		return true
	}
	victim := 0
	for i := range t.pages {
		if t.valid[i] && t.pages[i] == page {
			t.stamp[i] = t.clock
			t.Hits++
			t.last = i
			return true
		}
		if !t.valid[i] {
			victim = i
		} else if t.valid[victim] && t.stamp[i] < t.stamp[victim] {
			victim = i
		}
	}
	t.Misses++
	t.pages[victim] = page
	t.valid[victim] = true
	t.stamp[victim] = t.clock
	t.last = victim
	return false
}

func (t *refTLB) skipHits(addr uint64, n uint64) {
	page := addrmap.PageOf(addr)
	for i := range t.pages {
		if t.valid[i] && t.pages[i] == page {
			t.clock += n
			t.stamp[i] = t.clock
			t.Hits += n
			t.last = i
			return
		}
	}
	panic("refTLB: skipHits on a non-resident page")
}

// tlbAgree reports the first field where the indexed TLB and the
// reference differ, or "".
func tlbAgree(got *tlb, want *refTLB) string {
	switch {
	case !slices.Equal(got.pages, want.pages):
		return "pages"
	case !slices.Equal(got.valid, want.valid):
		return "valid"
	case !slices.Equal(got.stamp, want.stamp):
		return "stamps"
	case got.clock != want.clock:
		return "clock"
	case got.last != want.last:
		return "last/victim slot"
	case got.Hits != want.Hits || got.Misses != want.Misses:
		return "hit/miss counters"
	}
	for i := range got.pages {
		if want.valid[i] && got.find(want.pages[i]) != i {
			return fmt.Sprintf("index entry for slot %d", i)
		}
	}
	return ""
}

// TestTLBIndexMatchesLinearScan drives the indexed TLB and the linear-scan
// reference with the same seeded stream of lookups and elided hits — over
// more pages than entries, in phases of two threads alternating between
// their own working sets, a hot set with cold misses, and uniform traffic
// — and requires identical hit/miss results, victim slots, stamps and
// counters after every call. Half way through, the indexed TLB goes
// through a snapshot round trip and continues from the restored copy.
func TestTLBIndexMatchesLinearScan(t *testing.T) {
	for _, entries := range []int{128, 8, 1} {
		rng := rand.New(rand.NewSource(int64(42 + entries)))
		got, want := newTLB(entries), newRefTLB(entries)
		page := func(i int) uint64 {
			const threadSet = 70 // two of these overflow 128 entries
			switch phase := (i / 10000) % 3; {
			case phase == 0:
				return uint64(1000*(i%2) + rng.Intn(threadSet))
			case phase == 1 && rng.Intn(10) < 8:
				return uint64(5000 + rng.Intn(entries+entries/2+1))
			default:
				return uint64(rng.Intn(4 * (entries + 32)))
			}
		}
		const calls = 120000
		for i := 0; i < calls; i++ {
			if i == calls/2 {
				e := snapshot.NewEncoder()
				got.saveState(e)
				d, err := snapshot.NewDecoder(e.Finish())
				if err != nil {
					t.Fatal(err)
				}
				restored := newTLB(entries)
				restored.loadState(d)
				if err := d.Err(); err != nil {
					t.Fatalf("entries=%d: restore: %v", entries, err)
				}
				got = restored
			}
			var hitG, hitW bool
			if rng.Intn(8) == 0 {
				// Elided hits on a resident entry, n = 0 included so
				// equal stamps exercise the LRU tie-break.
				slot := rng.Intn(entries)
				if !want.valid[slot] {
					continue
				}
				addr := want.pages[slot]*addrmap.PageSize + uint64(rng.Intn(addrmap.PageSize))
				n := uint64(rng.Intn(4))
				got.skipHits(addr, n)
				want.skipHits(addr, n)
			} else {
				addr := page(i)*addrmap.PageSize + uint64(rng.Intn(addrmap.PageSize))
				hitG, hitW = got.lookup(addr), want.lookup(addr)
			}
			if hitG != hitW {
				t.Fatalf("entries=%d call %d: hit=%v, reference %v", entries, i, hitG, hitW)
			}
			if f := tlbAgree(got, want); f != "" {
				t.Fatalf("entries=%d call %d: %s diverged from the reference", entries, i, f)
			}
		}
		if want.Misses == 0 || want.Hits == 0 {
			t.Fatalf("entries=%d: stream never both hit and missed", entries)
		}
	}
}

// TestTLBLoadRejectsCorruptState checks that a restore refuses state no
// sequence of lookups can produce instead of building a wrong index.
func TestTLBLoadRejectsCorruptState(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(*tlb)
	}{
		{"duplicate page", func(tb *tlb) { tb.pages[1] = tb.pages[0] }},
		{"last too large", func(tb *tlb) { tb.last = len(tb.pages) }},
		{"last negative", func(tb *tlb) { tb.last = -1 }},
	} {
		tb := newTLB(4)
		for p := uint64(0); p < 4; p++ {
			tb.lookup(p * addrmap.PageSize)
		}
		c.corrupt(tb)
		e := snapshot.NewEncoder()
		tb.saveState(e)
		d, err := snapshot.NewDecoder(e.Finish())
		if err != nil {
			t.Fatal(err)
		}
		newTLB(4).loadState(d)
		if d.Err() == nil {
			t.Errorf("%s: restore accepted", c.name)
		}
	}
}
