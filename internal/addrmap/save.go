package addrmap

import "smtpsim/internal/snapshot"

// SaveState serializes the sparse store as a list of allocated slabs in
// radix order (group index, then slab index) — the backing structure's own
// dense layout, never a map. Untouched slabs are absent on both sides:
// reads of absent memory return zero before and after a round trip.
func (m *Memory) SaveState(e *snapshot.Encoder) {
	e.Mark("mem")
	e.Int(m.SlabCount())
	for hi, g := range m.groups {
		for mid, s := range g {
			if s == nil {
				continue
			}
			e.Int(hi)
			e.Int(mid)
			e.Bytes(s[:])
		}
	}
}

// LoadState restores state saved by SaveState into an empty (or reusable)
// store; previously allocated slabs not present in the snapshot are zeroed
// rather than freed, which is observationally identical.
func (m *Memory) LoadState(d *snapshot.Decoder) {
	d.Expect("mem")
	for _, g := range m.groups {
		for _, s := range g {
			if s != nil {
				*s = slab{}
			}
		}
	}
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		hi := d.Int()
		mid := d.Int()
		b := d.Bytes()
		if d.Err() != nil {
			return
		}
		if len(b) != SlabSize {
			d.Fail("slab %d/%d has %d bytes, want %d", hi, mid, len(b), SlabSize)
			return
		}
		if hi < 0 || hi >= 1<<(addrBits-groupShift) || mid < 0 || mid >= groupSlabs {
			d.Fail("slab %d/%d lies outside the %d-bit address space", hi, mid, addrBits)
			return
		}
		addr := uint64(hi)<<groupShift | uint64(mid)<<SlabShift
		s := m.slabOf(addr, true)
		copy(s[:], b)
	}
}
