package pipeline

import (
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// issue selects ready instructions from the integer and FP queues (bounded
// by functional units) and from the load/store queue (bounded by the single
// address-calculation ALU), oldest first.
func (p *Pipeline) issue(now sim.Cycle) {
	p.issueQueue(&p.intQ, true, p.cfg.IntALUs, now)
	p.issueQueue(&p.fpQ, false, p.cfg.FPUs, now)
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

// issueQueue issues from *q; isIntQ says whether it is the integer queue,
// whose per-context occupancy counts (occupancy.iq) follow removals.
func (p *Pipeline) issueQueue(q *[]*uop, isIntQ bool, units int, now sim.Cycle) {
	if len(*q) == 0 {
		return
	}
	// One pass: drop squashed entries eagerly so they don't occupy slots,
	// and collect ready candidates (scratch buffer reused across cycles).
	ready := p.scratch[:0]
	kept := (*q)[:0]
	for _, u := range *q {
		if u.squashed {
			if isIntQ {
				p.threads[u.tid].occ.iq--
			}
			continue
		}
		kept = append(kept, u)
		if p.srcsReady(u) {
			ready = append(ready, u)
		}
	}
	*q = kept
	// Oldest-first selection.
	sortBySeq(ready)
	p.scratch = ready[:0]
	issued := 0
	for _, u := range ready {
		if issued == units {
			break
		}
		p.active = true
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
		issued++
	}
}

// issueMem issues at most one memory operation per cycle (the dedicated
// address-calculation ALU). The load/store issue logic preserves program
// order among memory operations within a thread (R10000 behaviour, §3):
// only a thread's oldest unissued memory operation is a candidate.
func (p *Pipeline) issueMem(now sim.Cycle) {
	if len(p.lsq) == 0 {
		return
	}
	cands := p.memScratch[:0]
	for i := range p.seen {
		p.seen[i] = false
	}
	seen := p.seen
	// The LSQ is kept in age order per thread by construction (appends).
	for _, u := range p.lsq {
		if u.squashed {
			continue
		}
		if seen[u.tid] {
			continue
		}
		if u.issued {
			// Already issued ops no longer block issue of younger ops, but
			// ordering requires finding the next unissued one after them.
			continue
		}
		seen[u.tid] = true
		if u.in.Op.NonSpeculative() {
			// switch/ldctxt/send execute at graduation, not here. They
			// block younger memory ops of the same thread (mark seen).
			continue
		}
		if !p.srcsReady(u) {
			continue
		}
		cands = append(cands, u)
	}
	sortBySeq(cands)
	p.memScratch = cands[:0]
	if len(cands) > 0 {
		// Even a failed attempt touches TLBs, caches and MSHR counters.
		p.active = true
	}
	// One AGU: the oldest candidate that can make progress issues. An op
	// blocked on a structural resource (MSHRs exhausted) must not starve
	// younger ops from other threads — in particular the protocol thread's
	// accesses, which hold the reserved MSHR entry (§2.2).
	for _, u := range cands {
		if p.execMem(u, now) {
			return
		}
	}
}

// seen-ordering note: seen[tid] is set on the first unissued op per thread
// regardless of readiness, enforcing per-thread program order.

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
		p.ready[u.rdyDst] = true
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
		}
		if v.inIQ {
			before := len(p.intQ)
			p.intQ = removeUop(p.intQ, v)
			t.occ.iq -= before - len(p.intQ)
			p.fpQ = removeUop(p.fpQ, v)
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
