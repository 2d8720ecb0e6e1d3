package pipeline

import (
	"math/rand"
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/isa"
)

// branchyHandler is a protocol handler trace with cold taken branches (each
// mispredicts: the BTB has never seen it) between ALU runs, ending in the
// send/switch/ldctxt tail, so the protocol thread holds branch-stack,
// integer-register, issue-queue and load/store-queue entries and squashes.
func branchyHandler(base uint64, branches int) []isa.Instr {
	var tr []isa.Instr
	for b := 0; b < branches; b++ {
		for i := 0; i < 6; i++ {
			tr = append(tr, isa.Instr{Op: isa.OpIntALU, Dst: isa.Reg(3 + i%4), Src1: isa.Reg(3 + (i+1)%4)})
		}
		tr = append(tr, isa.Instr{Op: isa.OpBranch, Taken: true})
	}
	tr = append(tr, protoTrace(0, nil, 2)...)
	for i := range tr {
		tr[i].PC = base + uint64(i)*4
	}
	for i := range tr {
		if tr[i].Op == isa.OpBranch {
			tr[i].Target = tr[i+1].PC
		}
	}
	tr[0].Flags |= isa.FlagHandlerStart
	return tr
}

// loopSource replays a fixed instruction slice forever.
type loopSource struct {
	ins []isa.Instr
	pos int
}

func (s *loopSource) Peek() *isa.Instr { return &s.ins[s.pos%len(s.ins)] }
func (s *loopSource) Advance()         { s.pos++ }
func (s *loopSource) Done() bool       { return false }

// BenchmarkTLBLookup measures one translation on the 128-entry TLB with
// two threads alternating over their own 32 resident pages each: the
// last-entry probe misses on nearly every call, so this is the
// associative-search path instruction fetch pays on a 2-way core.
func BenchmarkTLBLookup(b *testing.B) {
	tb := newTLB(128)
	rng := rand.New(rand.NewSource(42))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		page := uint64(rng.Intn(32)) + uint64(i%2)*0x10000
		addrs[i] = page*addrmap.PageSize + uint64(rng.Intn(addrmap.PageSize))
	}
	for _, a := range addrs {
		tb.lookup(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.lookup(addrs[i&(len(addrs)-1)])
	}
}

// BenchmarkPipelineTickProto measures one core cycle of an SMTp core whose
// protocol thread is kept busy with handler traces (ALU runs, mispredicted
// branches, the send/switch/ldctxt tail) beside an application thread
// running a cache-resident load/ALU/store/branch loop.
func BenchmarkPipelineTickProto(b *testing.B) {
	r := newRig(1, true)
	var app []isa.Instr
	for i := 0; i < 64; i++ {
		a := 0x40000 + uint64(i%16)*128
		app = append(app,
			isa.Instr{Op: isa.OpLoad, Dst: 1, Addr: a, Size: 8},
			isa.Instr{Op: isa.OpIntALU, Dst: 2, Src1: 1},
			isa.Instr{Op: isa.OpIntALU, Dst: 3, Src1: 2},
			isa.Instr{Op: isa.OpStore, Src1: 3, Addr: a + 8, Size: 8},
		)
	}
	app = prog(0x100000, app...)
	r.warm(app)
	for i := range app {
		if app[i].Op.IsMem() {
			r.p.l1d.Fill(app[i].Addr, cache.Modified)
			r.p.l2.Fill(app[i].Addr, cache.Modified)
		}
	}
	r.p.SetSource(0, &loopSource{ins: app})
	handlers := make([][]isa.Instr, 8)
	for h := range handlers {
		handlers[h] = branchyHandler(1<<41+uint64(h)*0x400, 2)
		r.warm(handlers[h])
	}
	next := 0
	tick := func() {
		if r.p.Backend().CanAccept() {
			r.p.Backend().Start(handlers[next%len(handlers)])
			next++
		}
		r.eng.Step()
	}
	for i := 0; i < 5000; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	if r.p.ProtoActiveCyc == 0 || r.p.Retired[0] == 0 {
		b.Fatal("the protocol and application threads must both run")
	}
}

// BenchmarkPipelineIssue measures one core cycle of an SMTp core whose
// application thread has filled the integer issue queue and the
// load/store queue behind a load miss that never returns, while the
// protocol thread keeps the core active through its reserved entries:
// the case in which selection by scanning paid for every waiting entry.
func BenchmarkPipelineIssue(b *testing.B) {
	r := newRig(1, true)
	r.down.auto = false // the miss stays outstanding
	app := []isa.Instr{{Op: isa.OpLoad, Dst: 1, Addr: 0x80000, Size: 8}}
	for i := 0; i < 64; i++ {
		a := 0x40000 + uint64(i%16)*128
		app = append(app,
			isa.Instr{Op: isa.OpIntALU, Dst: 2, Src1: 1},
			isa.Instr{Op: isa.OpStore, Src1: 2, Addr: a + 8, Size: 8},
			isa.Instr{Op: isa.OpLoad, Dst: 3, Src1: 1, Addr: a, Size: 8},
		)
	}
	app = prog(0x100000, app...)
	r.warm(app)
	r.p.SetSource(0, &loopSource{ins: app})
	handlers := make([][]isa.Instr, 8)
	for h := range handlers {
		handlers[h] = branchyHandler(1<<41+uint64(h)*0x400, 2)
		r.warm(handlers[h])
	}
	next := 0
	tick := func() {
		if r.p.Backend().CanAccept() {
			r.p.Backend().Start(handlers[next%len(handlers)])
			next++
		}
		r.eng.Step()
	}
	for i := 0; i < 5000; i++ {
		tick()
	}
	if r.p.threads[0].occ.iq < r.p.cfg.IntQ-1 || r.p.threads[0].occ.lsq < r.p.cfg.LSQ-1 {
		b.Fatalf("application thread holds %+v, want full queues", r.p.threads[0].occ)
	}
	retired := r.p.Retired[r.p.ProtoTID()]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	if r.p.Retired[r.p.ProtoTID()] == retired {
		b.Fatal("the protocol thread must keep running")
	}
}
