package pipeline

import (
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// issue selects instructions for execution, oldest first: from the integer
// and FP issue queues up to the functional units, and at most one memory
// operation through the single address-calculation ALU. Selection follows
// wakeup events instead of rescanning the queues (DESIGN.md, "Event-driven
// issue"): each queue keeps a seq-ordered ready list that markReady fills,
// and each context's unissued memory operations wait in its memQ.
func (p *Pipeline) issue(now sim.Cycle) {
	if p.beforeIssue != nil {
		p.beforeIssue()
	}
	p.issueQueue(&p.intQ, &p.intReady, true, p.cfg.IntALUs, now)
	p.issueQueue(&p.fpQ, &p.fpReady, false, p.cfg.FPUs, now)
	p.issueMem(now)
}

// sortBySeq is an insertion sort (the lists are tiny and nearly sorted, and
// this avoids reflection in the per-cycle path).
func sortBySeq(us []*uop) {
	for i := 1; i < len(us); i++ {
		u := us[i]
		j := i - 1
		for j >= 0 && us[j].seq > u.seq {
			us[j+1] = us[j]
			j--
		}
		us[j+1] = u
	}
}

// waiter is one entry of a ready bit's wakeup list: an IQ uop waiting on
// that register, tagged with the uop's seq at registration, and the arena
// index of the next entry on the same list (-1 ends it).
type waiter struct {
	u    *uop
	seq  uint64
	next int32
}

// wakeups keeps every ready bit's waiter list in one arena: head[i] is the
// first entry of bit i's list (-1 when empty), and popped entries return
// to a free list. A list costs four bytes per register, and the arena
// stops growing once it holds the most registrations ever live at once.
type wakeups struct {
	head []int32
	pool []waiter
	free int32
}

func newWakeups(bits int) wakeups {
	w := wakeups{head: make([]int32, bits)}
	w.reset()
	return w
}

// reset empties every list.
func (w *wakeups) reset() {
	for i := range w.head {
		w.head[i] = -1
	}
	w.pool, w.free = w.pool[:0], -1
}

// add puts u on bit i's list.
func (w *wakeups) add(i int16, u *uop) {
	e := w.free
	if e >= 0 {
		w.free = w.pool[e].next
	} else {
		e = int32(len(w.pool))
		w.pool = append(w.pool, waiter{})
	}
	w.pool[e] = waiter{u: u, seq: u.seq, next: w.head[i]}
	w.head[i] = e
}

// pop removes and returns the first entry of bit i's list, if any.
func (w *wakeups) pop(i int16) (waiter, bool) {
	e := w.head[i]
	if e < 0 {
		return waiter{}, false
	}
	ent := w.pool[e]
	w.head[i] = ent.next
	w.pool[e] = waiter{next: w.free}
	w.free = e
	return ent, true
}

// clear empties bit i's list.
func (w *wakeups) clear(i int16) {
	for _, ok := w.pop(i); ok; _, ok = w.pop(i) {
	}
}

// queuesOf returns the issue queue an IQ uop lives in and that queue's
// ready list.
func (p *Pipeline) queuesOf(u *uop) (q, ready *[]*uop) {
	if u.in.Op.IsFPOp() {
		return &p.fpQ, &p.fpReady
	}
	return &p.intQ, &p.intReady
}

// enqueueIQ inserts a renamed uop into its issue queue. Its not-ready
// sources are counted in pending, and it registers on each one's waiter
// list; with none pending it is ready at once.
func (p *Pipeline) enqueueIQ(u *uop) {
	q, _ := p.queuesOf(u)
	u.inIQ = true
	*q = append(*q, u)
	p.watchSources(u)
}

// watchSources sets an IQ uop's pending count and wakeup registrations
// from the current ready bits.
func (p *Pipeline) watchSources(u *uop) {
	u.pending = 0
	for _, s := range [2]int16{u.rdySrc1, u.rdySrc2} {
		if s >= 0 && !p.ready[s] {
			u.pending++
			p.waiters.add(s, u)
		}
	}
	if u.pending == 0 {
		p.insertReady(u)
	}
}

// insertReady adds an IQ uop whose sources are all ready to its queue's
// ready list, keeping the list in seq order.
func (p *Pipeline) insertReady(u *uop) {
	_, rl := p.queuesOf(u)
	r := append(*rl, u)
	i := len(r) - 1
	for i > 0 && r[i-1].seq > u.seq {
		r[i] = r[i-1]
		i--
	}
	r[i] = u
	*rl = r
}

// markReady is the single route by which a ready bit goes from false to
// true: it sets bit idx and wakes the IQ uops waiting on it. A uop whose
// last pending source this was joins its queue's ready list. Entries are
// deleted lazily: a squashed consumer leaves the IQ at once but stays on
// its producer's list, and may since have been freed to the uop pool and
// reused. Such an entry no longer matches its seq tag, or its uop is out
// of the IQ (squashed and pooled uops never are in it), and is skipped.
func (p *Pipeline) markReady(idx int16) {
	p.ready[idx] = true
	for w, ok := p.waiters.pop(idx); ok; w, ok = p.waiters.pop(idx) {
		u := w.u
		if u.seq != w.seq || !u.inIQ {
			continue
		}
		if u.pending--; u.pending == 0 {
			p.insertReady(u)
		}
	}
}

// issueQueue issues the oldest `units` entries of a ready list — the same
// set a scan of the whole queue for ready uops, sorted by seq, would pick —
// and removes them from their issue queue *q. isIntQ says whether it is
// the integer queue, whose per-context occupancy counts (occupancy.iq)
// follow removals.
func (p *Pipeline) issueQueue(q, ready *[]*uop, isIntQ bool, units int, now sim.Cycle) {
	n := min(units, len(*ready))
	if n == 0 {
		return
	}
	p.active = true
	for _, u := range (*ready)[:n] {
		u.issued = true
		u.inIQ = false
		*q = removeUop(*q, u)
		t := p.threads[u.tid]
		if isIntQ {
			t.occ.iq--
		}
		p.noteIssued(t, u)
		// Two operand-read stages then the functional unit.
		lat := u.in.Op.Latency()
		if p.cfg.SlowBitOps && u.in.Op == isa.OpBitOp {
			lat += 3 // emulate popcount/ctz with a short shift-mask sequence
		}
		u.doneAt = now + 2 + sim.Cycle(lat)
		p.inflight = append(p.inflight, u)
	}
	*ready = append((*ready)[:0], (*ready)[n:]...)
}

// memCands returns this cycle's memory-issue candidates, oldest first. The
// load/store issue logic preserves program order among a thread's memory
// operations (R10000 behaviour, §3), so only the head of each context's
// memQ — its oldest unissued memory operation — is considered, and only
// if its sources are ready. A NonSpeculative head (switch/ldctxt/send)
// executes at graduation, not here, and blocks the ops behind it. The
// returned slice is scratch, valid until the next call.
func (p *Pipeline) memCands() []*uop {
	cands := p.memScratch[:0]
	for _, t := range p.threads {
		if len(t.memQ) == 0 {
			continue
		}
		if u := t.memQ[0]; !u.in.Op.NonSpeculative() && p.srcsReady(u) {
			cands = append(cands, u)
		}
	}
	sortBySeq(cands)
	p.memScratch = cands
	return cands
}

// issueMem issues at most one memory operation per cycle (the dedicated
// address-calculation ALU): the oldest candidate that can make progress.
// An op blocked on a structural resource (MSHRs exhausted: execLoad
// un-issues it) must not starve younger ops from other threads — in
// particular the protocol thread's accesses, which hold the reserved MSHR
// entry (§2.2) — and stays at its memQ head to retry.
func (p *Pipeline) issueMem(now sim.Cycle) {
	cands := p.memCands()
	if len(cands) == 0 {
		return
	}
	// Even a failed attempt touches TLBs, caches and MSHR counters.
	p.active = true
	for _, u := range cands {
		if p.execMem(u, now) {
			p.threads[u.tid].memPopHead()
			return
		}
	}
}

// writeback completes executed instructions whose latency has elapsed:
// results become visible, dependents wake, branches resolve.
func (p *Pipeline) writeback(now sim.Cycle) {
	kept := p.inflight[:0]
	for _, u := range p.inflight {
		if u.squashed {
			p.active = true // dropping a squashed op shrinks inflight
			p.freeUop(u)    // its last reference was this list
			continue
		}
		if u.doneAt > now {
			kept = append(kept, u)
			continue
		}
		p.active = true
		p.complete(u, now)
	}
	p.inflight = kept
}

// complete makes a result visible and resolves branches.
func (p *Pipeline) complete(u *uop, now sim.Cycle) {
	u.executed = true
	u.stage = sDone
	if u.rdyDst >= 0 {
		p.markReady(u.rdyDst)
	}
	if u.in.Op == isa.OpBranch {
		p.resolveBranch(u, now)
	}
}

// resolveBranch trains the predictor and recovers from mispredictions.
func (p *Pipeline) resolveBranch(u *uop, now sim.Cycle) {
	t := p.threads[u.tid]
	p.BrResolved[u.tid]++
	p.pred.Update(u.tid, u.pred, u.in.Taken)
	if u.in.Taken {
		p.btb.Insert(u.in.PC, u.in.Target)
	}
	if u.mispred {
		p.BrMispredicted[u.tid]++
		p.squashAfter(t, u)
		p.ckptRestore(t, u.brCkpt)
		t.wrongPath = false
		t.fetchStallUntil = now + 2 // redirect penalty
	}
	p.ckptFree(u.brCkpt)
	u.brCkpt = -1
}

// squashAfter removes every instruction younger than u in u's thread. By
// construction (fetch stops supplying real instructions the moment a
// misprediction is detected) the squashed instructions are wrong-path
// dummies and never own memory-system state.
func (p *Pipeline) squashAfter(t *thread, u *uop) {
	n := 0
	for t.robTail() != nil && t.robTail() != u {
		v := t.robTailPop()
		v.squashed = true
		n++
		p.SquashedUops[t.id]++
		if v.physDst >= 0 {
			// Restore happens via the checkpoint; the speculative register
			// returns to the free list.
			if v.in.Dst.IsFP() {
				p.fpFree.release(v.physDst)
			} else {
				p.intFree.release(v.physDst)
			}
		}
		if v.brCkpt >= 0 {
			p.ckptFree(v.brCkpt)
			v.brCkpt = -1
		}
		if v.inLSQ {
			p.lsq = removeUop(p.lsq, v)
			v.inLSQ = false
			t.occ.lsq--
			if !v.issued {
				// Squash runs youngest first: v is the memQ tail.
				t.memQ = t.memQ[:len(t.memQ)-1]
			}
		}
		if v.inIQ {
			q, rl := p.queuesOf(v)
			*q = removeUop(*q, v)
			if v.pending == 0 {
				*rl = removeUop(*rl, v)
			}
			if !v.in.Op.IsFPOp() {
				t.occ.iq--
			}
			v.inIQ = false
		}
		if v.haveQ && v.stage == sFetched {
			p.decodeQ = removeUop(p.decodeQ, v)
		}
		if v.stage == sDecoded {
			p.renameQ = removeUop(p.renameQ, v)
		}
		// frontCount: counted from fetch until issue.
		if v.counted {
			v.counted = false
			t.frontCount--
		}
		// Nothing references the op any more unless it is mid-execution
		// (writeback drops it) or parked on an MSHR / protocol-retry timer
		// (the refill's squashed-waiter skip drops it).
		if !v.waitingMem && !(v.issued && v.stage != sDone) {
			p.freeUop(v)
		}
	}
	// Instructions younger than the branch that are still in the front-end
	// queues were never pushed onto the active list; purge them too.
	for _, q := range []*[]*uop{&p.decodeQ, &p.renameQ} {
		kept := (*q)[:0]
		for _, v := range *q {
			if v.tid == t.id && v.seq > u.seq {
				v.squashed = true
				n++
				p.SquashedUops[t.id]++
				if v.counted {
					v.counted = false
					t.frontCount--
				}
				p.freeUop(v) // never issued, referenced only by this queue
				continue
			}
			kept = append(kept, v)
		}
		*q = kept
	}
	if n > 0 {
		p.SquashCycles[t.id]++
	}
	// Instructions executing in flight are skipped lazily in writeback.
}
