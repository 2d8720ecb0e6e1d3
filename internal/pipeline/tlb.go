package pipeline

import (
	"math"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/sim"
)

// tlb is a fully-associative LRU translation buffer (paper Table 2: 128
// entries, fully associative, LRU, 4 KB pages). The protocol thread's code
// and data live in unmapped physical memory and never consult the TLBs
// (§2.1); only application instruction fetch and data access translate.
//
// The paper does not give a table-walk latency; the penalty here is a
// configurable fixed stall (hardware-walker class), and the applications
// are blocked for the DTLB exactly as Table 1 notes for FFT, so misses are
// rare by construction.
//
// A lookup first probes the entry that hit or filled last, then a dense
// page-to-slot index; only a miss scans the entries, to pick the LRU
// victim. The index is derived state: it is rebuilt from pages/valid on
// restore and never serialized.
type tlb struct {
	pages []uint64
	valid []bool
	stamp []uint64
	clock uint64
	last  int // entry of the most recent hit or fill: probed before the index

	// index is an open-addressed, linearly probed table of resident
	// entries' slots (-1 = empty), a power of two at least twice the entry
	// count so probe runs stay short and an empty slot always ends them.
	index []int16
	shift uint // 64 - log2(len(index)): the multiplicative hash keeps the top bits

	Hits   uint64
	Misses uint64
}

func newTLB(entries int) *tlb {
	if entries > math.MaxInt16 {
		panic("pipeline: TLB entry count exceeds the index's slot width")
	}
	size, bits := 2, uint(1)
	for size < 2*entries {
		size, bits = size*2, bits+1
	}
	t := &tlb{
		pages: make([]uint64, entries),
		valid: make([]bool, entries),
		stamp: make([]uint64, entries),
		index: make([]int16, size),
		shift: 64 - bits,
	}
	t.reindex()
	return t
}

// home is page's preferred index position (Fibonacci hashing).
func (t *tlb) home(page uint64) int {
	return int((page * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the entry holding page, or -1.
func (t *tlb) find(page uint64) int {
	mask := len(t.index) - 1
	for i := t.home(page); ; i = (i + 1) & mask {
		s := t.index[i]
		if s < 0 {
			return -1
		}
		if t.pages[s] == page {
			return int(s)
		}
	}
}

// indexSlot records that entry slot now holds pages[slot].
func (t *tlb) indexSlot(slot int) {
	mask := len(t.index) - 1
	i := t.home(t.pages[slot])
	for t.index[i] >= 0 {
		i = (i + 1) & mask
	}
	t.index[i] = int16(slot)
}

// unindex removes the resident page from the index by backward-shift
// deletion: later members of the probe run move into the hole whenever
// that keeps them reachable from their home position, so no tombstones
// accumulate.
func (t *tlb) unindex(page uint64) {
	mask := len(t.index) - 1
	i := t.home(page)
	for t.pages[t.index[i]] != page {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j] >= 0; j = (j + 1) & mask {
		if h := t.home(t.pages[t.index[j]]); (j-h)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = -1
}

// reindex rebuilds the index from pages/valid. It returns the first entry
// whose page a lower entry already holds, or -1: a lookup never produces
// such a pair, so only a corrupt snapshot can.
func (t *tlb) reindex() int {
	for i := range t.index {
		t.index[i] = -1
	}
	for i := range t.pages {
		if !t.valid[i] {
			continue
		}
		if t.find(t.pages[i]) >= 0 {
			return i
		}
		t.indexSlot(i)
	}
	return -1
}

// lookup translates addr, filling on miss; reports whether it hit.
// Consecutive lookups overwhelmingly land on the same page, so the entry
// that hit (or filled) last time is probed before the index; either way a
// hit updates exactly the state an associative search would.
func (t *tlb) lookup(addr uint64) bool {
	page := addrmap.PageOf(addr)
	t.clock++
	i := t.last
	if !t.valid[i] || t.pages[i] != page {
		i = t.find(page)
	}
	if i >= 0 {
		t.stamp[i] = t.clock
		t.Hits++
		t.last = i
		return true
	}
	// Victim: the last invalid entry if any, else the lowest-numbered
	// entry with the oldest stamp.
	victim := 0
	for i := range t.pages {
		if !t.valid[i] {
			victim = i
		} else if t.valid[victim] && t.stamp[i] < t.stamp[victim] {
			victim = i
		}
	}
	if t.valid[victim] {
		t.unindex(t.pages[victim])
	}
	t.Misses++
	t.pages[victim] = page
	t.valid[victim] = true
	t.stamp[victim] = t.clock
	t.last = victim
	t.indexSlot(victim)
	return false
}

// skipHits applies n elided lookups of addr that are guaranteed hits: the
// recency clock advances once per lookup and the entry's stamp follows it,
// so the relative stamp order across entries — the only thing LRU victim
// choice observes — evolves exactly as n repeated lookups would leave it.
// Panics if the page is not resident, which would mean a component
// under-reported its next work to the kernel.
func (t *tlb) skipHits(addr uint64, n uint64) {
	i := t.find(addrmap.PageOf(addr))
	if i < 0 {
		panic("pipeline: skipHits on a non-resident page (quiescence contract violation)")
	}
	t.clock += n
	t.stamp[i] = t.clock
	t.Hits += n
	t.last = i
}

// dtlbCheck translates a data access for an application thread, returning
// the added latency (0 on hit). The protocol thread and unmapped regions
// bypass translation.
func (p *Pipeline) dtlbCheck(t *thread, addr uint64) sim.Cycle {
	if t.isProtocol || p.dtlb == nil || !addrmap.IsAppData(addr) {
		return 0
	}
	if p.dtlb.lookup(addr) {
		return 0
	}
	return sim.Cycle(p.cfg.TLBWalkCyc)
}

// itlbCheck translates an application instruction fetch; a miss blocks the
// thread for the walk latency.
func (p *Pipeline) itlbCheck(t *thread, pc uint64, now sim.Cycle) bool {
	if t.isProtocol || p.itlb == nil {
		return true
	}
	if p.itlb.lookup(pc) {
		return true
	}
	t.fetchStallUntil = now + sim.Cycle(p.cfg.TLBWalkCyc)
	return false
}
