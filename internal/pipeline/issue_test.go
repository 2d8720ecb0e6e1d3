package pipeline

import (
	"slices"
	"testing"

	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
)

// scanSelect is the scan-based IQ selection the wakeup and ready lists
// replaced, kept as the reference: every uop of q whose sources are ready,
// oldest first, up to units.
func scanSelect(p *Pipeline, q []*uop, units int) []*uop {
	var ready []*uop
	for _, u := range q {
		if !u.squashed && p.srcsReady(u) {
			ready = append(ready, u)
		}
	}
	sortBySeq(ready)
	return ready[:min(units, len(ready))]
}

// scanMemCands is the load/store-queue scan memQ replaced: the first
// unissued op of each thread in LSQ order is its only candidate, dropped
// if it executes at graduation or waits on a source.
func scanMemCands(p *Pipeline) []*uop {
	seen := make([]bool, len(p.threads))
	var cands []*uop
	for _, u := range p.lsq {
		if u.squashed || seen[u.tid] || u.issued {
			continue
		}
		seen[u.tid] = true
		if u.in.Op.NonSpeculative() || !p.srcsReady(u) {
			continue
		}
		cands = append(cands, u)
	}
	sortBySeq(cands)
	return cands
}

// issueRig is an SMTp core with few MSHRs, an application stream of
// missing loads, dependent integer and FP work, stores and cold branches,
// and protocol handlers whose loads queue behind sends. Every issue stage
// is checked against the scan references, and its choice is logged.
type issueRig struct {
	*rig
	t        *testing.T
	src      *sliceSource
	handlers [][]isa.Instr
	next     int

	log       []uint64 // seqs chosen by the last issue stage: int, fp, mem
	firstMem  *uop     // oldest memory candidate of the last issue stage
	firstSeq  uint64
	blockedNS int // issue stages with a ready op queued behind a NonSpeculative head
	fpIssued  int
}

const issueRigMSHRs = 3

func newIssueRig(t *testing.T, app []isa.Instr, handlers [][]isa.Instr, pos, next int) *issueRig {
	eng := sim.NewEngine()
	down := &mockDown{eng: eng, auto: true, delay: 60}
	cfg := DefaultConfig(1, true)
	cfg.MSHRs = issueRigMSHRs
	p := New(cfg, eng, down, &alwaysSync{ready: true})
	down.p = p
	eng.AddClocked(p, 1, 0)
	r := &issueRig{
		rig: &rig{eng: eng, p: p, down: down},
		t:   t, src: &sliceSource{ins: app, pos: pos}, handlers: handlers, next: next,
	}
	r.warm(app)
	for _, h := range handlers {
		r.warm(h)
	}
	// The second half of both streams hits in the caches, so the run has
	// cycles with no memory event pending, at which it can be snapshot.
	resident := [][]isa.Instr{app[len(app)/2:]}
	if len(handlers) > 0 {
		resident = append(resident, handlers[len(handlers)/2:]...)
	}
	for _, ins := range resident {
		for i := range ins {
			if ins[i].Op == isa.OpLoad || ins[i].Op == isa.OpStore {
				p.l1d.Fill(ins[i].Addr, cache.Modified)
				p.l2.Fill(ins[i].Addr, cache.Modified)
			}
		}
	}
	p.SetSource(0, r.src)
	p.beforeIssue = r.check
	return r
}

// check runs before every issue stage: the wakeup-driven choice must be
// the scan's, and the maintained issue state must match a recount.
func (r *issueRig) check() {
	p := r.p
	if err := p.checkIssue(); err != nil {
		r.t.Fatalf("cycle %d: %v", p.Cycles, err)
	}
	gotInt := p.intReady[:min(p.cfg.IntALUs, len(p.intReady))]
	gotFP := p.fpReady[:min(p.cfg.FPUs, len(p.fpReady))]
	gotMem := p.memCands()
	for _, c := range []struct {
		name      string
		got, want []*uop
	}{
		{"intQ", gotInt, scanSelect(p, p.intQ, p.cfg.IntALUs)},
		{"fpQ", gotFP, scanSelect(p, p.fpQ, p.cfg.FPUs)},
		{"memory", gotMem, scanMemCands(p)},
	} {
		if !slices.Equal(c.got, c.want) {
			r.t.Fatalf("cycle %d: %s selection %v, scan reference %v", p.Cycles, c.name, uopSeqs(c.got), uopSeqs(c.want))
		}
	}
	r.log = append(append(append(append(r.log[:0], uopSeqs(gotInt)...), 0), uopSeqs(gotFP)...), 0)
	r.log = append(r.log, uopSeqs(gotMem)...)
	r.fpIssued += len(gotFP)
	r.firstMem = nil
	if len(gotMem) > 0 {
		r.firstMem, r.firstSeq = gotMem[0], gotMem[0].seq
	}
	for _, t := range p.threads {
		if len(t.memQ) > 1 && t.memQ[0].in.Op.NonSpeculative() && p.srcsReady(t.memQ[1]) {
			r.blockedNS++
		}
	}
}

// step dispatches the next handler whenever the protocol thread can take
// one, then runs a cycle. It reports whether the cycle's oldest memory
// candidate failed to issue (MSHRs exhausted: execLoad un-issued it).
func (r *issueRig) step() (retried bool) {
	if r.next < len(r.handlers) && r.p.Backend().CanAccept() {
		r.p.Backend().Start(r.handlers[r.next])
		r.next++
	}
	r.firstMem = nil
	r.eng.Step()
	u := r.firstMem
	return u != nil && u.seq == r.firstSeq && u.inLSQ && !u.issued
}

func (r *issueRig) done() bool {
	return r.p.AppDone() && r.next == len(r.handlers) && r.p.ProtoQuiesced()
}

// issueStream builds the application stream: groups of independent loads
// of their own cold lines (more than the MSHRs can hold), integer and FP
// consumers, a divide chain, a store and a cold taken branch (a
// misprediction with wrong-path dummies to squash).
func issueStream() []isa.Instr {
	fp := isa.Reg(isa.FirstFP)
	var app []isa.Instr
	for g := 0; g < 12; g++ {
		for i := 0; i < 6; i++ {
			a := 0x40000 + uint64(g*6+i)*128
			app = append(app, isa.Instr{Op: isa.OpLoad, Dst: isa.Reg(1 + i), Addr: a, Size: 8})
		}
		app = append(app,
			isa.Instr{Op: isa.OpIntALU, Dst: 7, Src1: 1, Src2: 6},
			isa.Instr{Op: isa.OpIntMul, Dst: 10, Src1: 2, Src2: 2},
			isa.Instr{Op: isa.OpFPMul, Dst: fp, Src1: fp + 1, Src2: fp},
			isa.Instr{Op: isa.OpFPALU, Dst: fp + 1, Src1: fp},
			isa.Instr{Op: isa.OpIntDiv, Dst: 8, Src1: 8},
			isa.Instr{Op: isa.OpIntALU, Dst: 9, Src1: 8, Src2: 7},
			isa.Instr{Op: isa.OpStore, Src1: 9, Addr: 0x40000 + uint64(g*6)*128 + 8, Size: 8},
			isa.Instr{Op: isa.OpBranch, Taken: true},
		)
	}
	app = prog(0x100000, append(app, isa.Instr{Op: isa.OpNop})...)
	for i := range app {
		if app[i].Op == isa.OpBranch {
			app[i].Target = app[i+1].PC
		}
	}
	return app
}

// issueHandler is a protocol handler whose loads sit behind its sends (and,
// fetched ahead by look-ahead scheduling, behind the previous handler's
// switch/ldctxt), with cold branches that mispredict.
func issueHandler(base uint64, h int) []isa.Instr {
	dir := uint64(1)<<41 + 0x100000 + uint64(h)*256
	tr := []isa.Instr{
		{Op: isa.OpLoad, Dst: 3, Addr: dir, Size: 8},
		{Op: isa.OpIntALU, Dst: 4, Src1: 3},
		{Op: isa.OpSendHdr, Src1: 4, Addr: 1 << 42, Size: 8},
		{Op: isa.OpLoad, Dst: 5, Addr: dir + 8, Size: 8},
		{Op: isa.OpIntALU, Dst: 6, Src1: 5},
		{Op: isa.OpBranch, Taken: true},
		{Op: isa.OpIntALU, Dst: 6, Src1: 6},
		{Op: isa.OpStore, Src1: 6, Addr: dir + 16, Size: 8},
	}
	tr = append(tr, protoTrace(0, nil, 1)...)
	for i := range tr {
		tr[i].PC = base + uint64(i)*4
		tr[i].Flags &^= isa.FlagHandlerStart
	}
	for i := range tr {
		if tr[i].Op == isa.OpBranch {
			tr[i].Target = tr[i+1].PC
		}
	}
	tr[0].Flags |= isa.FlagHandlerStart
	return tr
}

// restoreIssueRig snapshots r's core and engine into a fresh rig at the
// same source and dispatch positions.
func restoreIssueRig(t *testing.T, r *issueRig) *issueRig {
	t.Helper()
	est, err := r.eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	e := snapshot.NewEncoder()
	r.p.SaveState(e, coherence.SaveInstr)
	d, err := snapshot.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	n := newIssueRig(t, r.src.ins, r.handlers, r.src.pos, r.next)
	if err := n.eng.ImportState(est); err != nil {
		t.Fatal(err)
	}
	pool := network.NewPool()
	n.p.LoadState(d, func(d *snapshot.Decoder) isa.Instr { return coherence.LoadInstr(d, pool) })
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	n.p.FinishRestore()
	return n
}

// TestIssueSelectMatchesScanEveryCycle checks, before every issue stage,
// that the ready lists and per-thread memQs choose exactly what the old
// scans of the whole IQs and LSQ chose, through protocol- and
// application-thread mispredictions and squashes, loads un-issued for
// want of an MSHR and retried, ready memory ops held behind a
// NonSpeculative head, and a snapshot restore into a fresh core that must
// then choose in lockstep with the original.
func TestIssueSelectMatchesScanEveryCycle(t *testing.T) {
	app := issueStream()
	var handlers [][]isa.Instr
	for h := 0; h < 16; h++ {
		handlers = append(handlers, issueHandler(1<<41+uint64(h)*0x400, h))
	}
	r := newIssueRig(t, app, handlers, 0, 0)
	proto := r.p.ProtoTID()
	retries := 0
	var restored *issueRig
	for c := 0; c < 20000 && !r.done(); c++ {
		if r.step() {
			retries++
		}
		if restored == nil {
			if r.eng.PendingEvents() == 0 && r.p.BrMispredicted[proto] > 0 && retries > 0 && waiting(r.p) {
				restored = restoreIssueRig(t, r)
			}
			continue
		}
		restored.step()
		if !slices.Equal(restored.log, r.log) {
			t.Fatalf("cycle %d: restored core chose %v, original %v", r.p.Cycles, restored.log, r.log)
		}
	}
	if !r.done() {
		t.Fatalf("run did not drain in %d cycles", r.p.Cycles)
	}
	if restored == nil {
		t.Fatal("no cycle with a uop waiting in each queue, a retried load and no pending event")
	}
	if r.p.BrMispredicted[proto] == 0 || r.p.BrMispredicted[0] == 0 || r.p.SquashedUops[proto] == 0 {
		t.Fatalf("both threads must mispredict and squash: mispredicts %v, squashed %v",
			r.p.BrMispredicted, r.p.SquashedUops)
	}
	if retries == 0 {
		t.Fatal("no load was un-issued for want of an MSHR")
	}
	if r.blockedNS == 0 {
		t.Fatal("no ready memory op waited behind a NonSpeculative head")
	}
	if r.fpIssued == 0 {
		t.Fatal("no FP op issued")
	}
	if !slices.Equal(restored.p.Retired, r.p.Retired) {
		t.Fatalf("restored core retired %v, original %v", restored.p.Retired, r.p.Retired)
	}
	if err := r.p.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// waiting reports whether an IQ uop waits on a source and a thread has an
// unissued memory op: the derived state a restore must rebuild.
func waiting(p *Pipeline) bool {
	mem := false
	for _, t := range p.threads {
		mem = mem || len(t.memQ) > 0
	}
	for _, u := range p.intQ {
		if u.pending > 0 {
			return mem
		}
	}
	return false
}

// TestLoadStateRejectsOutOfOrderLSQ checks that a restore refuses a
// load/store queue in which a thread's issued memory op follows an
// unissued one: memQ is derived as the unissued suffix.
func TestLoadStateRejectsOutOfOrderLSQ(t *testing.T) {
	r := newRig(1, false)
	th := r.p.threads[0]
	for i := 0; i < 2; i++ {
		u := r.p.newUop()
		r.p.seq++
		u.tid, u.seq, u.brCkpt = th.id, r.p.seq, -1
		u.in = isa.Instr{Op: isa.OpLoad, Dst: 1, Addr: 0x4000 + uint64(i)*128, Size: 8}
		if !r.p.tryRename(u, 0) {
			t.Fatal("rename refused")
		}
	}
	r.p.lsq[1].issued = true // the younger op issued, the older did not
	e := snapshot.NewEncoder()
	r.p.SaveState(e, coherence.SaveInstr)
	d, err := snapshot.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	pool := network.NewPool()
	newRig(1, false).p.LoadState(d, func(d *snapshot.Decoder) isa.Instr { return coherence.LoadInstr(d, pool) })
	if d.Err() == nil {
		t.Fatal("restore accepted an issued memory op behind an unissued one")
	}
}
