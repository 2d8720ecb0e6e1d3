package sim

import (
	"fmt"
	"sort"
)

// Desc identifies a scheduled event for snapshot/restore. The engine never
// interprets a descriptor: it is opaque identity that internal/machine's
// restore path dispatches on to rebuild the event's closure. Owner is the
// node the event belongs to (which decides the target shard engine on
// restore), Kind a package-scoped constant (each scheduling package claims
// a disjoint range; 0 is reserved for "no descriptor"), and Args the
// closure's captured values, packed by the scheduling site.
//
// Every event scheduled on a snapshot-capable engine must carry a valid
// descriptor: ExportState fails on a pending event without one, so a new
// scheduling site that forgets to describe itself is caught by the
// differential tests, not silently dropped from snapshots.
type Desc struct {
	Owner int32
	Kind  uint8
	Args  [6]uint64
}

// Valid reports whether the descriptor identifies an event kind.
func (d Desc) Valid() bool { return d.Kind != 0 }

// EventState is one pending event as exported by ExportState: the exact
// heap-ordering key (due cycle, scheduling position, sequence number) plus
// the descriptor that lets the restore path rebuild the closure.
type EventState struct {
	At   Cycle
	Pos  [3]uint64
	Seq  uint64
	Desc Desc
}

// CompState is the per-clocked-component engine state: the precomputed
// next due cycle. Deferral windows are always settled (FlushDeferred)
// before export, so lazy state needs no representation.
type CompState struct {
	NextTick Cycle
}

// EngineState is a complete, closure-free image of an engine's dynamic
// state. Events are sorted by the engine's own firing order (eventLess),
// making the export deterministic regardless of heap layout.
type EngineState struct {
	Now     Cycle
	Seq     uint64
	Skipped uint64
	Comps   []CompState
	Events  []EventState
}

// ScheduleDesc is Schedule with an attached restore descriptor.
func (e *Engine) ScheduleDesc(at Cycle, d Desc, fn func()) {
	if at <= e.now {
		panic(fmt.Sprintf("sim: schedule at %d but now is %d", at, e.now))
	}
	e.seq++
	ev := event{at: at, pos: e.ctx, seq: e.seq, fn: fn, desc: e.takeDesc(d)}
	if e.reference {
		e.refPush(ev)
		return
	}
	e.pushEvent(ev)
}

// AfterDesc is After with an attached restore descriptor.
func (e *Engine) AfterDesc(delay Cycle, d Desc, fn func()) {
	if delay == 0 {
		delay = 1
	}
	at := e.now + delay
	if at < e.now {
		panic(fmt.Sprintf("sim: After(%d) at cycle %d wraps past the end of simulated time", delay, e.now))
	}
	e.ScheduleDesc(at, d, fn)
}

// ScheduleKeyedDesc is ScheduleKeyed with an attached restore descriptor.
func (e *Engine) ScheduleKeyedDesc(at Cycle, pos [3]uint64, d Desc, fn func()) {
	if at <= e.now {
		panic(fmt.Sprintf("sim: schedule at %d but now is %d", at, e.now))
	}
	e.seq++
	e.pushEvent(event{at: at, pos: pos, seq: e.seq, fn: fn, desc: e.takeDesc(d)})
}

// RestoreEvent re-injects a snapshotted event with its original heap key.
// Unlike Schedule it consumes no sequence number: the caller replays the
// exact (at, pos, seq) triple from the snapshot so the restored heap fires
// in the same order — and interleaves with post-restore scheduling the
// same way — as the uninterrupted run's heap. An event that is not in the
// future is an error: the snapshot bytes are untrusted input.
func (e *Engine) RestoreEvent(at Cycle, pos [3]uint64, seq uint64, d Desc, fn func()) error {
	if at <= e.now {
		return fmt.Errorf("sim: restore event at %d but now is %d", at, e.now)
	}
	e.pushEvent(event{at: at, pos: pos, seq: seq, fn: fn, desc: e.takeDesc(d)})
	return nil
}

// ExportState captures the engine's dynamic state for a snapshot. The
// caller must have settled all lazy-deferral windows (FlushDeferred)
// first. Fails if any pending event lacks a descriptor, naming its due
// cycle so the undescribed scheduling site is easy to locate.
func (e *Engine) ExportState() (EngineState, error) {
	if e.reference {
		return EngineState{}, fmt.Errorf("sim: snapshot of a reference engine is not supported")
	}
	st := EngineState{Now: e.now, Seq: e.seq, Skipped: e.skipped}
	st.Comps = make([]CompState, len(e.comps))
	for i := range e.comps {
		ce := &e.comps[i]
		if ce.deferring {
			return EngineState{}, fmt.Errorf("sim: ExportState with open deferral window on component %d (call FlushDeferred first)", i)
		}
		st.Comps[i] = CompState{NextTick: ce.nextTick}
	}
	evs := make([]event, len(e.events))
	copy(evs, e.events)
	sort.Slice(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
	st.Events = make([]EventState, len(evs))
	for i, ev := range evs {
		if ev.desc == 0 || !e.descs[ev.desc-1].Valid() {
			return EngineState{}, fmt.Errorf("sim: pending event due at cycle %d has no restore descriptor", ev.at)
		}
		st.Events[i] = EventState{At: ev.at, Pos: ev.pos, Seq: ev.seq, Desc: e.descs[ev.desc-1]}
	}
	return st, nil
}

// ImportState moves the engine's clock, sequence counter and component
// schedule to a snapshot's values. The event heap is cleared; the caller
// re-injects events with RestoreEvent after rebuilding their closures.
// The component count must match the snapshot (same machine shape).
func (e *Engine) ImportState(st EngineState) error {
	if e.reference {
		return fmt.Errorf("sim: restore into a reference engine is not supported")
	}
	if len(st.Comps) != len(e.comps) {
		return fmt.Errorf("sim: snapshot has %d clocked components, engine has %d", len(st.Comps), len(e.comps))
	}
	e.now = st.Now
	e.seq = st.Seq
	e.skipped = st.Skipped
	for i := range e.comps {
		ce := &e.comps[i]
		ce.nextTick = st.Comps[i].NextTick
		ce.deferring = false
		ce.settleBase = 0
	}
	for i := range e.events {
		e.putDesc(e.events[i].desc)
		e.events[i] = event{}
	}
	e.events = e.events[:0]
	return nil
}

// SetSeq forces the engine's event sequence counter. The machine-level
// restore uses it to continue every engine's numbering from the
// snapshot's global maximum, keeping new sequence numbers above every
// restored one.
func (e *Engine) SetSeq(seq uint64) {
	if seq > e.seq {
		e.seq = seq
	}
}
