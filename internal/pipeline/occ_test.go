package pipeline

import (
	"testing"

	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/snapshot"
)

// occRig is a protocol-thread rig whose caches hold every line the streams
// touch, so no memory-system event is ever pending: at any such cycle the
// core's whole state is its snapshot.
type occRig struct {
	*rig
	src      *sliceSource
	handlers [][]isa.Instr
	next     int
}

func newOccRig(app []isa.Instr, handlers [][]isa.Instr, pos, next int) *occRig {
	r := &occRig{rig: newRig(1, true), src: &sliceSource{ins: app, pos: pos}, handlers: handlers, next: next}
	r.warm(app)
	for _, h := range handlers {
		r.warm(h)
	}
	for i := range app {
		if app[i].Op.IsMem() {
			r.p.l1d.Fill(app[i].Addr, cache.Modified)
			r.p.l2.Fill(app[i].Addr, cache.Modified)
		}
	}
	r.p.SetSource(0, r.src)
	return r
}

// step dispatches the next handler whenever the protocol thread can take
// one, then runs a cycle.
func (r *occRig) step() {
	if r.next < len(r.handlers) && r.p.Backend().CanAccept() {
		r.p.Backend().Start(r.handlers[r.next])
		r.next++
	}
	r.eng.Step()
}

// TestOccupancyCountsMatchScanEveryCycle checks the maintained occupancy
// counts against a recomputing scan after every cycle of a run in which the
// protocol thread and an application thread both mispredict and squash,
// across a snapshot restore into a fresh core that must then run in
// lockstep with the original.
func TestOccupancyCountsMatchScanEveryCycle(t *testing.T) {
	var app []isa.Instr
	for i := 0; i < 40; i++ {
		a := 0x40000 + uint64(i%8)*128
		app = append(app,
			isa.Instr{Op: isa.OpLoad, Dst: 1, Addr: a, Size: 8},
			isa.Instr{Op: isa.OpIntALU, Dst: 2, Src1: 1},
			isa.Instr{Op: isa.OpStore, Src1: 2, Addr: a + 8, Size: 8},
			isa.Instr{Op: isa.OpBranch, Taken: true},
		)
	}
	app = prog(0x100000, append(app, isa.Instr{Op: isa.OpNop})...)
	for i := range app {
		if app[i].Op == isa.OpBranch {
			app[i].Target = app[i+1].PC
		}
	}
	var handlers [][]isa.Instr
	for h := 0; h < 12; h++ {
		handlers = append(handlers, branchyHandler(1<<41+uint64(h)*0x400, 3))
	}

	r := newOccRig(app, handlers, 0, 0)
	pt := r.p.threads[r.p.ProtoTID()]
	var peak occupancy
	var restored *occRig
	for c := 0; c < 4000 && !(r.p.AppDone() && r.next == len(handlers) && r.p.ProtoQuiesced()); c++ {
		r.step()
		if err := r.p.checkOcc(); err != nil {
			t.Fatalf("cycle %d: %v", r.p.Cycles, err)
		}
		o := pt.occ
		peak.brStack = max(peak.brStack, o.brStack)
		peak.iq = max(peak.iq, o.iq)
		peak.lsq = max(peak.lsq, o.lsq)
		if restored == nil && o.brStack > 0 && o.iq > 0 && o.lsq > 0 && r.eng.PendingEvents() == 0 &&
			r.p.BrMispredicted[r.p.ProtoTID()] > 0 {
			restored = restoreOccRig(t, r)
			continue
		}
		if restored != nil {
			restored.step()
			if err := restored.p.checkOcc(); err != nil {
				t.Fatalf("restored core, cycle %d: %v", restored.p.Cycles, err)
			}
			for i, th := range restored.p.threads {
				if th.occ != r.p.threads[i].occ {
					t.Fatalf("cycle %d: restored core's thread %d counts %+v, original %+v",
						r.p.Cycles, i, th.occ, r.p.threads[i].occ)
				}
			}
		}
	}
	if !r.p.AppDone() || r.next != len(handlers) {
		t.Fatalf("run did not drain in %d cycles", r.p.Cycles)
	}
	if restored == nil {
		t.Fatal("no cycle with the protocol thread holding every resource and no pending event")
	}
	if r.p.BrMispredicted[r.p.ProtoTID()] == 0 || r.p.BrMispredicted[0] == 0 {
		t.Fatalf("both threads must mispredict: %v", r.p.BrMispredicted)
	}
	if peak.brStack == 0 || peak.iq == 0 || peak.lsq == 0 {
		t.Fatalf("protocol thread never held every resource: peak %+v", peak)
	}
	if restored.p.Retired[0] != r.p.Retired[0] || restored.p.Retired[1] != r.p.Retired[1] {
		t.Fatalf("restored core retired %v, original %v", restored.p.Retired, r.p.Retired)
	}
	if err := r.p.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// restoreOccRig snapshots r's core and engine into a fresh rig at the same
// source and dispatch positions, and checks the restore recomputed the
// occupancy counts the original maintained.
func restoreOccRig(t *testing.T, r *occRig) *occRig {
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
	n := newOccRig(r.src.ins, r.handlers, r.src.pos, r.next)
	if err := n.eng.ImportState(est); err != nil {
		t.Fatal(err)
	}
	for _, th := range n.p.threads {
		th.occ = occupancy{brStack: -1} // LoadState must recompute, not keep
	}
	pool := network.NewPool()
	n.p.LoadState(d, func(d *snapshot.Decoder) isa.Instr { return coherence.LoadInstr(d, pool) })
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	n.p.FinishRestore()
	for i, th := range n.p.threads {
		if th.occ != r.p.threads[i].occ {
			t.Fatalf("restored thread %d counts %+v, saved core maintained %+v", i, th.occ, r.p.threads[i].occ)
		}
	}
	return n
}

// TestSquashReleasesOccupancy squashes renamed memory and ALU operations
// directly — the wrong-path dummies fetch synthesizes are ALU-only, so no
// run squashes a load/store-queue entry — and checks every count, the
// ready list and the memQ follow.
func TestSquashReleasesOccupancy(t *testing.T) {
	r := newRig(1, true)
	th := r.p.threads[0]
	rename := func(in isa.Instr) *uop {
		u := r.p.newUop()
		r.p.seq++
		u.tid, u.seq, u.in, u.brCkpt = th.id, r.p.seq, in, -1
		if !r.p.tryRename(u, 0) {
			t.Fatalf("rename of %v refused", in.Op)
		}
		return u
	}
	br := rename(isa.Instr{Op: isa.OpBranch, Taken: true})
	rename(isa.Instr{Op: isa.OpLoad, Dst: 1, Addr: 0x4000, Size: 8})
	rename(isa.Instr{Op: isa.OpIntALU, Dst: 2, Src1: 1})
	rename(isa.Instr{Op: isa.OpBranch})
	if want := (occupancy{brStack: 2, intRegs: 2, iq: 3, lsq: 1}); th.occ != want {
		t.Fatalf("after rename: counts %+v, want %+v", th.occ, want)
	}
	r.p.squashAfter(th, br)
	if want := (occupancy{brStack: 1, iq: 1}); th.occ != want {
		t.Fatalf("after squash: counts %+v, want %+v", th.occ, want)
	}
	if err := r.p.checkOcc(); err != nil {
		t.Fatal(err)
	}
	if err := r.p.checkIssue(); err != nil {
		t.Fatal(err)
	}
	if len(th.memQ) != 0 || len(r.p.intReady) != 1 || r.p.intReady[0] != br {
		t.Fatalf("after squash: memQ %v, ready list %v; want only the branch ready", uopSeqs(th.memQ), uopSeqs(r.p.intReady))
	}
}
