package machine

import (
	"fmt"
	"sort"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/network"
	"smtpsim/internal/pipeline"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
)

// This file is the machine-level half of checkpoint/restore (DESIGN.md
// §14): Snapshot serializes the complete mid-run machine into the
// versioned snapshot stream, Restore rebuilds it into a freshly
// constructed machine of the same Config (the shard count excepted — a
// snapshot taken at any shard count restores at any other).
//
// Shard-arrangement portability rests on two normalizations:
//
//   - Every engine runs keyed (machine.New enables keys even serially), so
//     each pending event carries its global scheduling position. The merged
//     event list sorts by (due cycle, position, sequence) — the exact
//     firing order one big serial engine would use — and restore dispatches
//     each event to whichever engine owns its node in the target
//     arrangement.
//   - Per-engine component schedules concatenate, in shard order, into the
//     single global registration order; restore re-splits the array by the
//     target engines' component counts.

// PositionedSource is the optional InstrSource extension snapshots
// require: a consumed-instruction position that can be saved and
// reapplied to a freshly attached source (workload.SliceSource implements
// it).
type PositionedSource interface {
	pipeline.InstrSource
	Pos() int
	SetPos(int)
}

// SnapshotAlign is the cycle alignment of snapshot points: the 256-cycle
// Done-poll batch edge shared by the serial and sharded run loops. At a
// batch edge every shard engine is parked on the same cycle, staged
// cross-shard sends have been replayed, and the quantum (a power of two at
// most 256) divides evenly — so the point is a sync point at any shard
// count.
const SnapshotAlign = 256

// snapshotGuard reports why this machine cannot be snapshotted, or nil.
func (m *Machine) snapshotGuard() error {
	if m.Cfg.ReferenceKernel {
		return fmt.Errorf("machine: the reference kernel does not support snapshots")
	}
	if m.Cfg.SampleInterval > 0 {
		return fmt.Errorf("machine: snapshot with a time-series recorder attached is not supported")
	}
	if m.Cfg.Protocol != nil {
		return fmt.Errorf("machine: snapshot with a replacement coherence protocol is not supported")
	}
	return nil
}

// engines lists the machine's engines in shard order (one entry, the
// global engine, on a serial machine).
func (m *Machine) engines() []*sim.Engine {
	if len(m.shards) == 0 {
		return []*sim.Engine{m.Eng}
	}
	es := make([]*sim.Engine, len(m.shards))
	for i, s := range m.shards {
		es[i] = s.eng
	}
	return es
}

// eventStateLess is eventLess over exported events: due cycle, then global
// scheduling position, then per-engine sequence. Across engines two
// positions are equal only for the same component (see sim.EnableKeys), so
// the sequence lane never decides a cross-engine tie and the merged order
// is the serial firing order.
func eventStateLess(a, b sim.EventState) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Pos != b.Pos {
		if a.Pos[0] != b.Pos[0] {
			return a.Pos[0] < b.Pos[0]
		}
		if a.Pos[1] != b.Pos[1] {
			return a.Pos[1] < b.Pos[1]
		}
		return a.Pos[2] < b.Pos[2]
	}
	return a.Seq < b.Seq
}

// Snapshot serializes the machine's complete dynamic state. It may only be
// taken with the machine parked at a SnapshotAlign batch edge (where Run
// returns when given a multiple of SnapshotAlign cycles); resuming a
// restored machine then reproduces the uninterrupted run byte-for-byte —
// the differential tests pin this for every pinned config.
func (m *Machine) Snapshot() ([]byte, error) {
	if err := m.snapshotGuard(); err != nil {
		return nil, err
	}
	now := m.Eng.Now()
	if now%SnapshotAlign != 0 {
		return nil, fmt.Errorf("machine: snapshot at cycle %d: snapshot points are %d-cycle batch edges", now, SnapshotAlign)
	}
	if err := m.Net.CheckQuiesced(); err != nil {
		return nil, err
	}
	m.flushDeferred()

	engines := m.engines()
	var (
		maxSeq  uint64
		skipped uint64
		comps   []sim.Cycle
		evs     []sim.EventState
	)
	for i, eng := range engines {
		st, err := eng.ExportState()
		if err != nil {
			return nil, err
		}
		if st.Now != now {
			return nil, fmt.Errorf("machine: engine %d parked at cycle %d, coordinator at %d", i, st.Now, now)
		}
		if st.Seq > maxSeq {
			maxSeq = st.Seq
		}
		skipped += st.Skipped
		for _, c := range st.Comps {
			comps = append(comps, c.NextTick)
		}
		evs = append(evs, st.Events...)
	}
	sort.Slice(evs, func(i, j int) bool { return eventStateLess(evs[i], evs[j]) })

	e := snapshot.NewEncoder()
	e.Mark("mach")
	e.Int(int(m.Cfg.Model))
	e.Int(m.Cfg.Nodes)
	e.Int(m.Cfg.AppThreads)
	e.Int(int(m.Cfg.CPUGHz * 1000)) // mGHz: no floats in the stream
	e.U64(uint64(now))
	e.U64(maxSeq)
	e.U64(skipped)
	e.Int(len(comps))
	for _, nt := range comps {
		e.U64(uint64(nt))
	}
	m.Sync.SaveState(e)
	m.Net.SaveState(e)

	e.Mark("src")
	e.Int(m.GlobalThreads())
	for g := 0; g < m.GlobalThreads(); g++ {
		src := m.Nodes[g/m.Cfg.AppThreads].Pipe.Source(g % m.Cfg.AppThreads)
		ps, ok := src.(PositionedSource)
		if !ok {
			return nil, fmt.Errorf("machine: thread %d source %T cannot report a stream position", g, src)
		}
		e.Int(ps.Pos())
	}

	for _, n := range m.Nodes {
		n.SaveState(e)
	}

	e.Mark("evts")
	e.Int(len(evs))
	for _, ev := range evs {
		e.U64(uint64(ev.At))
		e.U64(ev.Pos[0])
		e.U64(ev.Pos[1])
		e.U64(ev.Pos[2])
		e.U64(ev.Seq)
		e.I64(int64(ev.Desc.Owner))
		e.U8(ev.Desc.Kind)
		for _, a := range ev.Desc.Args {
			e.U64(a)
		}
	}
	return e.Finish(), nil
}

// Restore rebuilds a snapshot into this machine, which must be freshly
// built from the same Config (any shard count) with the same workload
// already attached — attachment installs the instruction sources, barrier
// declarations and page placement that are setup state, then Restore
// overwrites every piece of dynamic state. Resuming afterwards continues
// the snapshotted run exactly.
func (m *Machine) Restore(b []byte) error {
	if err := m.snapshotGuard(); err != nil {
		return err
	}
	d, err := snapshot.NewDecoder(b)
	if err != nil {
		return err
	}
	d.Expect("mach")
	if v := Model(d.Int()); d.Err() == nil && v != m.Cfg.Model {
		return fmt.Errorf("machine: snapshot of model %v, machine is %v", v, m.Cfg.Model)
	}
	if v := d.Int(); d.Err() == nil && v != m.Cfg.Nodes {
		return fmt.Errorf("machine: snapshot of %d nodes, machine has %d", v, m.Cfg.Nodes)
	}
	if v := d.Int(); d.Err() == nil && v != m.Cfg.AppThreads {
		return fmt.Errorf("machine: snapshot with %d app threads, machine has %d", v, m.Cfg.AppThreads)
	}
	if v := d.Int(); d.Err() == nil && v != int(m.Cfg.CPUGHz*1000) {
		return fmt.Errorf("machine: snapshot at %d mGHz, machine at %d", v, int(m.Cfg.CPUGHz*1000))
	}
	now := sim.Cycle(d.U64())
	seq := d.U64()
	skipped := d.U64()
	comps := make([]sim.Cycle, 0, d.Count(8))
	for i := 0; i < cap(comps) && d.Err() == nil; i++ {
		comps = append(comps, sim.Cycle(d.U64()))
	}
	if d.Err() != nil {
		return d.Err()
	}

	m.flushDeferred()
	engines := m.engines()
	total := 0
	for _, eng := range engines {
		total += eng.NumClocked()
	}
	if total != len(comps) {
		return fmt.Errorf("machine: snapshot has %d clocked components, machine has %d", len(comps), total)
	}
	off := 0
	for i, eng := range engines {
		n := eng.NumClocked()
		cs := make([]sim.CompState, n)
		for k := 0; k < n; k++ {
			cs[k] = sim.CompState{NextTick: comps[off+k]}
		}
		off += n
		var sk uint64
		if i == 0 {
			// The skip counter is telemetry with no per-shard meaning across
			// arrangements; the machine-wide total lands on the first engine.
			sk = skipped
		}
		if err := eng.ImportState(sim.EngineState{Now: now, Seq: seq, Skipped: sk, Comps: cs}); err != nil {
			return err
		}
	}

	m.Sync.LoadState(d)
	m.Net.LoadState(d)

	d.Expect("src")
	if v := d.Int(); d.Err() == nil && v != m.GlobalThreads() {
		return fmt.Errorf("machine: snapshot has %d threads, machine has %d", v, m.GlobalThreads())
	}
	for g := 0; g < m.GlobalThreads() && d.Err() == nil; g++ {
		pos := d.Int()
		src := m.Nodes[g/m.Cfg.AppThreads].Pipe.Source(g % m.Cfg.AppThreads)
		ps, ok := src.(PositionedSource)
		if !ok {
			return fmt.Errorf("machine: thread %d source %T cannot restore a stream position (workload not attached?)", g, src)
		}
		ps.SetPos(pos)
	}

	for _, n := range m.Nodes {
		n.LoadState(d)
	}

	d.Expect("evts")
	for i, ne := 0, d.Int(); i < ne && d.Err() == nil; i++ {
		at := sim.Cycle(d.U64())
		pos := [3]uint64{d.U64(), d.U64(), d.U64()}
		evSeq := d.U64()
		var desc sim.Desc
		desc.Owner = int32(d.I64())
		desc.Kind = d.U8()
		for k := range desc.Args {
			desc.Args[k] = d.U64()
		}
		if d.Err() != nil {
			break
		}
		if err := m.rehydrate(at, pos, evSeq, desc); err != nil {
			return err
		}
	}
	for _, n := range m.Nodes {
		n.Pipe.FinishRestore()
	}
	return d.Err()
}

// rehydrate dispatches one snapshotted event to the component that owns
// its descriptor kind, on whichever engine drives the owner node in this
// machine's shard arrangement.
func (m *Machine) rehydrate(at sim.Cycle, pos [3]uint64, seq uint64, desc sim.Desc) error {
	if desc.Owner < 0 || int(desc.Owner) >= len(m.Nodes) {
		return fmt.Errorf("machine: event kind %d owned by node %d, machine has %d nodes", desc.Kind, desc.Owner, len(m.Nodes))
	}
	switch {
	case desc.Kind == network.KDeliver:
		var ep *network.Endpoint
		if len(m.shards) > 0 {
			ep = m.epOf(addrmap.NodeID(desc.Owner))
		}
		return m.Net.RestoreDelivery(ep, at, pos, seq, desc)
	case desc.Kind < network.KDeliver:
		return m.Nodes[desc.Owner].Pipe.Rehydrate(at, pos, seq, desc)
	default:
		return m.Nodes[desc.Owner].MC.Rehydrate(at, pos, seq, desc)
	}
}

// SaveState serializes the synchronization manager: barrier arrivals (in
// arrival order — the arrived set is rebuilt from it), lock holders and
// wait queues, the participant declarations, and the wait counters. Map
// keys are emitted in sorted token order, never map order.
func (s *SyncManager) SaveState(e *snapshot.Encoder) {
	e.Mark("sync")
	pk := make([]uint64, 0, len(s.participants))
	for k := range s.participants {
		pk = append(pk, k)
	}
	sort.Slice(pk, func(i, j int) bool { return pk[i] < pk[j] })
	e.Int(len(pk))
	for _, k := range pk {
		e.U64(k)
		e.Int(s.participants[k])
	}

	bk := make([]uint64, 0, len(s.barriers))
	for k := range s.barriers {
		bk = append(bk, k)
	}
	sort.Slice(bk, func(i, j int) bool { return bk[i] < bk[j] })
	e.Int(len(bk))
	for _, k := range bk {
		e.U64(k)
		e.Ints(s.barriers[k].order)
	}

	lk := make([]uint64, 0, len(s.locks))
	for k := range s.locks {
		lk = append(lk, k)
	}
	sort.Slice(lk, func(i, j int) bool { return lk[i] < lk[j] })
	e.Int(len(lk))
	for _, k := range lk {
		l := s.locks[k]
		e.U64(k)
		e.Int(l.holder)
		e.Ints(l.queue)
	}

	e.U64(s.BarrierWaits)
	e.U64(s.LockWaits)
}

// LoadState restores state saved by SaveState, replacing all current
// synchronization state.
func (s *SyncManager) LoadState(d *snapshot.Decoder) {
	d.Expect("sync")
	s.participants = make(map[uint64]int)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := d.U64()
		s.participants[k] = d.Int()
	}
	s.barriers = make(map[uint64]*barrierState)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := d.U64()
		order := d.Ints()
		b := &barrierState{arrived: make(map[int]bool, len(order)), order: order}
		for _, g := range order {
			b.arrived[g] = true
		}
		s.barriers[k] = b
	}
	s.locks = make(map[uint64]*lockState)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := d.U64()
		holder := d.Int()
		queue := d.Ints()
		s.locks[k] = &lockState{holder: holder, queue: queue}
	}
	s.BarrierWaits = d.U64()
	s.LockWaits = d.U64()
}
