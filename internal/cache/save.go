package cache

import "smtpsim/internal/snapshot"

// SaveState serializes the cache's dynamic state: every way of every set
// in backing-array order (a dense table — layout, not map, order), the
// LRU clock, the valid-line count and the hit/miss counters. Geometry is
// not serialized; the restoring machine rebuilds it from the Config and
// the leading guard fields detect a mismatch.
func (c *Cache) SaveState(e *snapshot.Encoder) {
	e.Mark("cache")
	e.Int(c.cfg.Size)
	e.Int(c.cfg.LineSize)
	e.Int(c.cfg.Assoc)
	e.U64(c.clock)
	e.Int(c.valid)
	e.U64(c.Hits)
	e.U64(c.Misses)
	for i := range c.lines {
		l := &c.lines[i]
		e.U64(l.Tag)
		e.U8(uint8(l.State))
		e.U64(l.stamp)
	}
}

// LoadState restores state saved by SaveState into an identically
// configured cache.
func (c *Cache) LoadState(d *snapshot.Decoder) {
	d.Expect("cache")
	if size, ls, as := d.Int(), d.Int(), d.Int(); d.Err() == nil &&
		(size != c.cfg.Size || ls != c.cfg.LineSize || as != c.cfg.Assoc) {
		d.Fail("cache geometry %d/%d/%d, want %d/%d/%d",
			size, ls, as, c.cfg.Size, c.cfg.LineSize, c.cfg.Assoc)
		return
	}
	c.clock = d.U64()
	c.valid = d.Int()
	c.Hits = d.U64()
	c.Misses = d.U64()
	for i := range c.lines {
		l := &c.lines[i]
		l.Tag = d.U64()
		l.State = State(d.U8())
		l.stamp = d.U64()
	}
}

// SaveState serializes the MSHR file. Waiter tokens are opaque to this
// package; saveWaiter encodes each one (the pipeline writes a tag plus a
// stable identity such as a uop sequence number).
func (f *MSHRFile) SaveState(e *snapshot.Encoder, saveWaiter func(*snapshot.Encoder, interface{})) {
	e.Mark("mshr")
	e.U64(f.allocSeq)
	e.U64(f.AllocFails)
	e.Int(len(f.general))
	for i := range f.general {
		saveMSHREntry(e, &f.general[i], saveWaiter)
	}
	saveMSHREntry(e, &f.storeEntry, saveWaiter)
}

func saveMSHREntry(e *snapshot.Encoder, m *MSHREntry, saveWaiter func(*snapshot.Encoder, interface{})) {
	e.Bool(m.inUse)
	if !m.inUse {
		return
	}
	e.U64(m.LineAddr)
	e.Bool(m.Exclusive)
	e.U8(uint8(m.Class))
	e.Bool(m.Issued)
	e.Int(m.AcksLeft)
	e.U64(m.Gen)
	e.Bool(m.storeSlot)
	e.Int(len(m.Waiters))
	for _, w := range m.Waiters {
		saveWaiter(e, w)
	}
}

// LoadState restores the MSHR file; loadWaiter decodes each waiter token.
func (f *MSHRFile) LoadState(d *snapshot.Decoder, loadWaiter func(*snapshot.Decoder) interface{}) {
	d.Expect("mshr")
	f.allocSeq = d.U64()
	f.AllocFails = d.U64()
	if n := d.Int(); d.Err() == nil && n != len(f.general) {
		d.Fail("mshr has %d general entries, want %d", n, len(f.general))
		return
	}
	for i := range f.general {
		loadMSHREntry(d, &f.general[i], loadWaiter)
	}
	loadMSHREntry(d, &f.storeEntry, loadWaiter)
}

func loadMSHREntry(d *snapshot.Decoder, m *MSHREntry, loadWaiter func(*snapshot.Decoder) interface{}) {
	*m = MSHREntry{}
	if !d.Bool() {
		return
	}
	m.inUse = true
	m.LineAddr = d.U64()
	m.Exclusive = d.Bool()
	m.Class = MSHRClass(d.U8())
	m.Issued = d.Bool()
	m.AcksLeft = d.Int()
	m.Gen = d.U64()
	m.storeSlot = d.Bool()
	n := d.Count(1)
	if n == 0 {
		return
	}
	m.Waiters = make([]interface{}, 0, n)
	for i := 0; i < n; i++ {
		m.Waiters = append(m.Waiters, loadWaiter(d))
	}
}
