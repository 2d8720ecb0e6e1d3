package ppengine

import (
	"smtpsim/internal/isa"
	"smtpsim/internal/snapshot"
)

func (c *dmCache) saveState(e *snapshot.Encoder) {
	e.U64s(c.tags)
	e.Bools(c.valid)
	e.U64(c.hits)
	e.U64(c.misses)
}

func (c *dmCache) loadState(d *snapshot.Decoder) {
	tags := d.U64s()
	valid := d.Bools()
	if d.Err() != nil {
		return
	}
	if len(tags) != len(c.tags) || len(valid) != len(c.valid) {
		d.Fail("pp dm-cache has %d tags, want %d", len(tags), len(c.tags))
		return
	}
	copy(c.tags, tags)
	copy(c.valid, valid)
	c.hits = d.U64()
	c.misses = d.U64()
}

// SaveState serializes the protocol processor: cache tag arrays, counters,
// and the in-flight handler trace with its cursor. Trace instructions carry
// effect payloads this package treats opaquely; saveInstr encodes them (the
// memory controller supplies the coherence codec).
func (e *Engine) SaveState(enc *snapshot.Encoder, saveInstr func(*snapshot.Encoder, *isa.Instr)) {
	enc.Mark("ppeng")
	enc.U64(e.BusyCycles)
	enc.U64(e.Retired)
	enc.U64(e.Handlers)
	enc.U64(e.TakenBranches)
	enc.Bool(e.dir != nil)
	if e.dir != nil {
		e.dir.saveState(enc)
	}
	enc.Bool(e.ic != nil)
	if e.ic != nil {
		e.ic.saveState(enc)
	}
	if e.trace == nil {
		enc.Int(-1)
		return
	}
	// Save only the unretired tail: entries before pc already fired their
	// effect payloads, which were recycled into the dispatch pool (the
	// stale pointers must not be followed). pc never rewinds — handler
	// branches are skips encoded as stalls, not backward jumps.
	enc.Int(len(e.trace))
	enc.Int(e.pc)
	for i := e.pc; i < len(e.trace); i++ {
		saveInstr(enc, &e.trace[i])
	}
	enc.Int(e.stall)
}

// LoadState restores state saved by SaveState into an identically
// configured engine; loadInstr decodes trace instructions.
func (e *Engine) LoadState(d *snapshot.Decoder, loadInstr func(*snapshot.Decoder) isa.Instr) {
	d.Expect("ppeng")
	e.BusyCycles = d.U64()
	e.Retired = d.U64()
	e.Handlers = d.U64()
	e.TakenBranches = d.U64()
	if hadDir := d.Bool(); d.Err() == nil {
		if hadDir != (e.dir != nil) {
			d.Fail("pp directory-cache presence mismatch")
			return
		}
		if e.dir != nil {
			e.dir.loadState(d)
		}
	}
	if hadIC := d.Bool(); d.Err() == nil {
		if hadIC != (e.ic != nil) {
			d.Fail("pp icache presence mismatch")
			return
		}
		if e.ic != nil {
			e.ic.loadState(d)
		}
	}
	n := d.Int()
	if d.Err() != nil || n < 0 {
		e.trace, e.pc, e.stall = nil, 0, 0
		return
	}
	pc := d.Int()
	if d.Err() != nil || n > isa.MaxTraceLen || pc < 0 || pc > n {
		d.Fail("pp trace pc %d out of range 0..%d (at most %d)", pc, n, isa.MaxTraceLen)
		return
	}
	// Already-retired entries round trip as zero instructions; only
	// trace[pc:] is ever read again.
	trace := make([]isa.Instr, pc, n)
	for i := pc; i < n && d.Err() == nil; i++ {
		trace = append(trace, loadInstr(d))
	}
	e.trace = trace
	e.pc = pc
	e.stall = d.Int()
}

// CurrentTrace exposes the in-flight handler trace so the owning backend
// can re-alias its recycling reference after a restore.
func (e *Engine) CurrentTrace() []isa.Instr { return e.trace }
