package pipeline

import (
	"fmt"
	"slices"
	"sort"

	"smtpsim/internal/cache"
)

// L2Lines iterates the valid L2 (and L2 bypass buffer) lines for the
// machine-level coherence checker.
func (p *Pipeline) L2Lines(fn func(tag uint64, st cache.State)) {
	p.l2.Lines(fn)
	if p.l2byp != nil {
		p.l2byp.Lines(fn)
	}
}

// CheckInclusion verifies that every valid L1 line is covered by a valid L2
// (or bypass) line.
func (p *Pipeline) CheckInclusion() error {
	var err error
	check := func(level string) func(tag uint64, st cache.State) {
		return func(tag uint64, st cache.State) {
			if err != nil {
				return
			}
			if p.l2.Probe(tag) == nil && (p.l2byp == nil || p.l2byp.Probe(tag) == nil) {
				err = fmt.Errorf("%s line %#x (%v) not present in L2: inclusion violated", level, tag, st)
			}
		}
	}
	p.l1d.Lines(check("L1D"))
	if p.dbyp != nil {
		p.dbyp.Lines(check("DBypass"))
	}
	// The L1I holds read-only code; inclusion matters for the data side.
	return err
}

// CheckNoLeaks verifies that no transaction state is left over after a
// quiesced run, and that the maintained occupancy counts and event-driven
// issue state agree with the structures they summarize.
func (p *Pipeline) CheckNoLeaks() error {
	if err := p.checkOcc(); err != nil {
		return err
	}
	if err := p.checkIssue(); err != nil {
		return err
	}
	if n := p.mshr.InUse(); n != 0 {
		return fmt.Errorf("%d MSHRs leaked", n)
	}
	if p.mshr.StoreSlotBusy() {
		return fmt.Errorf("retiring-store MSHR leaked")
	}
	if len(p.storeBuf) != 0 {
		return fmt.Errorf("%d store-buffer entries leaked", len(p.storeBuf))
	}
	if len(p.wbPending) != 0 {
		return fmt.Errorf("%d writebacks never acknowledged", len(p.wbPending))
	}
	// Report the lowest leaking line so the error text is deterministic.
	lines := make([]uint64, 0, len(p.acksWanted))
	for line := range p.acksWanted {
		if p.acksWanted[line] != 0 {
			lines = append(lines, line)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	if len(lines) > 0 {
		return fmt.Errorf("line %#x still expects %d invalidation acks", lines[0], p.acksWanted[lines[0]])
	}
	return nil
}

// countOcc recomputes thread tid's occupancy by scanning the structures:
// the reference the maintained counts (thread.occ) must always equal.
func (p *Pipeline) countOcc(tid int) occupancy {
	var o occupancy
	for i := range p.ckptsArr {
		if p.ckptsArr[i].valid && p.ckptsArr[i].tid == tid {
			o.brStack++
		}
	}
	t := p.threads[tid]
	for i := 0; i < t.robCount; i++ {
		if u := t.rob[(t.robHead+i)%len(t.rob)]; u != nil && holdsIntReg(u) {
			o.intRegs++
		}
	}
	for _, u := range p.intQ {
		if u.tid == tid {
			o.iq++
		}
	}
	for _, u := range p.lsq {
		if u.tid == tid {
			o.lsq++
		}
	}
	return o
}

// checkOcc compares every context's maintained occupancy counts with a
// recomputing scan.
func (p *Pipeline) checkOcc() error {
	for _, t := range p.threads {
		if want := p.countOcc(t.id); t.occ != want {
			return fmt.Errorf("thread %d occupancy counts %+v, structures hold %+v", t.id, t.occ, want)
		}
	}
	return nil
}

// checkIssue compares the event-driven issue state with a recomputing
// scan: every IQ uop's pending count against the ready bits and its
// registrations on the waiter lists, each ready list against the
// seq-sorted IQ uops with nothing pending, and each context's memQ against
// its unissued LSQ entries in order. No squashed uop may remain in an
// issue or load/store queue: squashAfter removes them at once, and the
// wakeup and memQ bookkeeping rely on it.
func (p *Pipeline) checkIssue() error {
	for _, iq := range [2]struct {
		name     string
		q, ready []*uop
	}{{"intQ", p.intQ, p.intReady}, {"fpQ", p.fpQ, p.fpReady}} {
		var want []*uop
		for _, u := range iq.q {
			if u.squashed {
				return fmt.Errorf("%s holds squashed uop %d", iq.name, u.seq)
			}
			var pending int8
			for _, s := range [2]int16{u.rdySrc1, u.rdySrc2} {
				if s < 0 || p.ready[s] {
					continue
				}
				pending++
				regs := 0
				ws := &p.waiters
				for e := ws.head[s]; e >= 0; e = ws.pool[e].next {
					if w := ws.pool[e]; w.u == u && w.seq == u.seq {
						regs++
					}
				}
				if regs == 0 {
					return fmt.Errorf("%s uop %d waits on ready bit %d without a waiter entry", iq.name, u.seq, s)
				}
			}
			if u.pending != pending {
				return fmt.Errorf("%s uop %d pending %d, ready bits leave %d", iq.name, u.seq, u.pending, pending)
			}
			if pending == 0 {
				want = append(want, u)
			}
		}
		sortBySeq(want)
		if !slices.Equal(iq.ready, want) {
			return fmt.Errorf("%s ready list %v, ready entries %v", iq.name, uopSeqs(iq.ready), uopSeqs(want))
		}
	}
	memQ := make([][]*uop, len(p.threads))
	for _, u := range p.lsq {
		if u.squashed {
			return fmt.Errorf("lsq holds squashed uop %d", u.seq)
		}
		if !u.issued {
			memQ[u.tid] = append(memQ[u.tid], u)
		}
	}
	for _, t := range p.threads {
		if !slices.Equal(t.memQ, memQ[t.id]) {
			return fmt.Errorf("thread %d memQ %v, unissued LSQ entries %v", t.id, uopSeqs(t.memQ), uopSeqs(memQ[t.id]))
		}
	}
	return nil
}

func uopSeqs(us []*uop) []uint64 {
	seqs := make([]uint64, len(us))
	for i, u := range us {
		seqs[i] = u.seq
	}
	return seqs
}

// MSHRInUse exposes the MSHR load for tests and drain checks.
func (p *Pipeline) MSHRInUse() int { return p.mshr.InUse() }

// Caches exposes the hierarchy for workload warmup and statistics.
func (p *Pipeline) Caches() (l1i, l1d, l2 *cache.Cache) { return p.l1i, p.l1d, p.l2 }

// ProtoStats returns the SMTp dispatch statistics (zeros on non-SMTp cores).
func (p *Pipeline) ProtoStats() (dispatched, lookAheadStarts, switchStalls uint64) {
	if p.proto == nil {
		return 0, 0, 0
	}
	return p.proto.HandlersDispatched, p.proto.LookAheadStarts, p.proto.SwitchStallCycles
}

// Cfg returns the pipeline configuration.
func (p *Pipeline) Cfg() Config { return p.cfg }
