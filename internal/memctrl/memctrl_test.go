package memctrl

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/directory"
	"smtpsim/internal/network"
	"smtpsim/internal/ppengine"
	"smtpsim/internal/sim"
)

// testNode implements coherence.Env and NodeIface for controller tests.
type testNode struct {
	id    addrmap.NodeID
	nodes int
	amap  *addrmap.Map
	dir   *directory.Directory
	l2    map[uint64]cache.State

	refills []refillRec
	naks    []uint64
	iacks   []uint64
	wbacks  []uint64
	at      []sim.Cycle
	eng     *sim.Engine
}

type refillRec struct {
	line    uint64
	st      cache.State
	acks    int
	upgrade bool
	when    sim.Cycle
}

func newTestNode(id addrmap.NodeID, nodes int, eng *sim.Engine) *testNode {
	return &testNode{
		id: id, nodes: nodes, eng: eng,
		amap: addrmap.NewMap(nodes),
		dir:  directory.New(addrmap.NewMemory(), nodes),
		l2:   map[uint64]cache.State{},
	}
}

func (n *testNode) NodeID() addrmap.NodeID               { return n.id }
func (n *testNode) Nodes() int                           { return n.nodes }
func (n *testNode) HomeOf(a uint64) addrmap.NodeID       { return n.amap.HomeOf(a) }
func (n *testNode) DirLoad(a uint64) directory.Entry     { return n.dir.Load(a) }
func (n *testNode) DirStore(a uint64, e directory.Entry) { n.dir.Store(a, e) }
func (n *testNode) DirEntryAddr(a uint64) uint64         { return n.dir.EntryAddr(a) }
func (n *testNode) CacheProbe(l uint64) cache.State      { return n.l2[l] }
func (n *testNode) CacheInvalidate(l uint64) bool {
	was := n.l2[l]
	delete(n.l2, l)
	return was == cache.Modified
}
func (n *testNode) CacheDowngrade(l uint64) bool {
	was := n.l2[l]
	if was.Writable() {
		n.l2[l] = cache.Shared
	}
	return was == cache.Modified
}
func (n *testNode) DeliverRefill(line uint64, st cache.State, acks int, upgrade bool) {
	n.refills = append(n.refills, refillRec{line, st, acks, upgrade, n.eng.Now()})
	if !upgrade {
		n.l2[line] = st
	}
}
func (n *testNode) DeliverNak(line uint64)   { n.naks = append(n.naks, line) }
func (n *testNode) DeliverIAck(line uint64)  { n.iacks = append(n.iacks, line) }
func (n *testNode) DeliverWBAck(line uint64) { n.wbacks = append(n.wbacks, line) }

// rig is a little machine of N nodes with PP backends.
type rig struct {
	eng   *sim.Engine
	net   *network.Network
	nodes []*testNode
	mcs   []*MC
}

func newRig(t testing.TB, nodes int, cfg Config) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine()}
	r.net = network.New(network.Config{Nodes: nodes, HopCycles: 50, BytesPerCyc: 0.5, LocalLoop: 4},
		r.eng, func(m *network.Message) { r.mcs[m.Dst].EnqueueNet(m) })
	for i := 0; i < nodes; i++ {
		tn := newTestNode(addrmap.NodeID(i), nodes, r.eng)
		mc := New(cfg, r.eng, tn, tn, r.net)
		pp := NewPPBackend(ppengine.DefaultConfig(0, 0), mc)
		mc.SetBackend(pp)
		r.eng.AddClocked(pp, cfg.ClockDiv, 0)
		r.eng.AddClocked(sim.ClockedFunc(mc.Tick), cfg.ClockDiv, 0)
		r.nodes = append(r.nodes, tn)
		r.mcs = append(r.mcs, mc)
	}
	return r
}

func (r *rig) run(cycles int) {
	for i := 0; i < cycles; i++ {
		r.eng.Step()
	}
}

func defCfg() Config {
	return Config{ClockDiv: 2, SDRAMAccessCyc: 160, SDRAMXferCyc: 80, LocalQueueCap: 16}
}

func piMsg(t coherence.MsgType, addr uint64, self addrmap.NodeID) *network.Message {
	return &network.Message{Src: self, Dst: self, Type: uint8(t), Addr: addr}
}

func TestLocalQueueCapacity(t *testing.T) {
	cfg := defCfg()
	cfg.LocalQueueCap = 2
	r := newRig(t, 1, cfg)
	if !r.mcs[0].EnqueueLocal(piMsg(coherence.MsgPIRead, 0, 0)) {
		t.Fatal("first enqueue must succeed")
	}
	if !r.mcs[0].EnqueueLocal(piMsg(coherence.MsgPIRead, 128, 0)) {
		t.Fatal("second enqueue must succeed")
	}
	if r.mcs[0].EnqueueLocal(piMsg(coherence.MsgPIRead, 256, 0)) {
		t.Fatal("third enqueue must fail (queue cap 2)")
	}
	if r.mcs[0].LocalFull != 1 {
		t.Fatal("LocalFull not counted")
	}
}

func TestLocalReadRefillTiming(t *testing.T) {
	r := newRig(t, 1, defCfg())
	addr := uint64(0)
	r.mcs[0].EnqueueLocal(piMsg(coherence.MsgPIRead, addr, 0))
	r.run(1000)
	n := r.nodes[0]
	if len(n.refills) != 1 {
		t.Fatalf("want 1 refill, got %d", len(n.refills))
	}
	rf := n.refills[0]
	if rf.st != cache.Exclusive || rf.acks != 0 {
		t.Fatalf("local unowned read must refill Exclusive/0 acks: %+v", rf)
	}
	// The refill cannot beat the 160-cycle SDRAM access.
	if rf.when < 160 {
		t.Fatalf("refill at %d beat the SDRAM access time", rf.when)
	}
	// And should not be grossly later (handler is short, overlapped fetch).
	if rf.when > 400 {
		t.Fatalf("refill at %d: overlap of handler and SDRAM fetch broken", rf.when)
	}
	if e := n.dir.Load(addr); e.State != directory.Dirty || e.Owner != 0 {
		t.Fatalf("directory after local read: %+v", e)
	}
}

func TestTwoNodeReadTransaction(t *testing.T) {
	r := newRig(t, 2, defCfg())
	addr := uint64(0) // homed at node 0
	r.mcs[1].EnqueueLocal(piMsg(coherence.MsgPIRead, addr, 1))
	r.run(3000)
	n1 := r.nodes[1]
	if len(n1.refills) != 1 {
		t.Fatalf("requester refills=%d, want 1", len(n1.refills))
	}
	if n1.refills[0].st != cache.Exclusive {
		t.Fatal("eager-exclusive reply expected")
	}
	if e := r.nodes[0].dir.Load(addr); e.State != directory.Dirty || e.Owner != 1 {
		t.Fatalf("home directory: %+v, want Dirty(1)", e)
	}
	// Remote read must be slower than the pure SDRAM access.
	if n1.refills[0].when < 300 {
		t.Fatalf("remote refill at %d implausibly fast", n1.refills[0].when)
	}
}

func TestThreeHopTransaction(t *testing.T) {
	r := newRig(t, 4, defCfg())
	addr := uint64(0) // homed at node 0
	// Node 3 owns the line dirty.
	r.nodes[0].dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 3})
	r.nodes[3].l2[addr] = cache.Modified
	// Node 1 reads.
	r.mcs[1].EnqueueLocal(piMsg(coherence.MsgPIRead, addr, 1))
	r.run(6000)
	n1 := r.nodes[1]
	if len(n1.refills) != 1 || n1.refills[0].st != cache.Shared {
		t.Fatalf("3-hop read refill wrong: %+v", n1.refills)
	}
	if r.nodes[3].l2[addr] != cache.Shared {
		t.Fatal("owner must be downgraded")
	}
	e := r.nodes[0].dir.Load(addr)
	if e.State != directory.Shared || !e.HasSharer(1) || !e.HasSharer(3) {
		t.Fatalf("home directory after SHWB: %+v", e)
	}
}

func TestInvalidationAcksFlow(t *testing.T) {
	r := newRig(t, 4, defCfg())
	addr := uint64(0)
	r.nodes[0].dir.Store(addr, directory.Entry{State: directory.Shared, Sharers: 0b1100}) // 2,3
	r.nodes[2].l2[addr] = cache.Shared
	r.nodes[3].l2[addr] = cache.Shared
	// Node 1 writes.
	r.mcs[1].EnqueueLocal(piMsg(coherence.MsgPIWrite, addr, 1))
	r.run(8000)
	n1 := r.nodes[1]
	if len(n1.refills) != 1 || n1.refills[0].acks != 2 {
		t.Fatalf("PUTX with 2 acks expected: %+v", n1.refills)
	}
	if len(n1.iacks) != 2 {
		t.Fatalf("requester must collect 2 IACKs, got %d", len(n1.iacks))
	}
	if _, ok := r.nodes[2].l2[addr]; ok {
		t.Fatal("sharer 2 not invalidated")
	}
	if _, ok := r.nodes[3].l2[addr]; ok {
		t.Fatal("sharer 3 not invalidated")
	}
	if e := r.nodes[0].dir.Load(addr); e.State != directory.Dirty || e.Owner != 1 {
		t.Fatalf("home directory: %+v", e)
	}
}

func TestNakOnBusyLine(t *testing.T) {
	r := newRig(t, 2, defCfg())
	addr := uint64(0)
	r.nodes[0].dir.Store(addr, directory.Entry{State: directory.BusyExcl, Owner: 1, Pending: 1})
	r.mcs[1].EnqueueLocal(piMsg(coherence.MsgPIRead, addr, 1))
	r.run(3000)
	if len(r.nodes[1].naks) != 1 {
		t.Fatalf("busy line must NAK the requester, got %v", r.nodes[1].naks)
	}
}

func TestWritebackFlow(t *testing.T) {
	r := newRig(t, 2, defCfg())
	addr := uint64(0)
	r.nodes[0].dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 1})
	r.mcs[1].EnqueueLocal(piMsg(coherence.MsgPIWriteback, addr, 1))
	r.run(3000)
	if len(r.nodes[1].wbacks) != 1 {
		t.Fatal("writeback must be acknowledged")
	}
	if e := r.nodes[0].dir.Load(addr); e.State != directory.Unowned {
		t.Fatalf("directory after WB: %+v", e)
	}
	if r.mcs[0].MemWrites != 1 {
		t.Fatalf("WB must write SDRAM once, got %d", r.mcs[0].MemWrites)
	}
}

func TestRepliesDispatchBeforeRequests(t *testing.T) {
	r := newRig(t, 1, defCfg())
	mc := r.mcs[0]
	req := piMsg(coherence.MsgPIRead, 0, 0)
	rep := &network.Message{Src: 0, Dst: 0, Type: uint8(coherence.MsgNAK), Addr: 128, VC: network.VCReply}
	mc.EnqueueLocal(req)
	mc.EnqueueNet(rep)
	// One MC tick dispatches one message; the reply must win. After 20
	// cycles the NAK handler has retired but the read's SDRAM access
	// (160 cycles) cannot have completed, proving the reply went first.
	r.run(20)
	if len(r.nodes[0].naks) != 1 {
		t.Fatal("reply (NAK) must dispatch before the request")
	}
	if len(r.nodes[0].refills) != 0 {
		t.Fatal("request refill cannot have completed yet")
	}
}

func TestPIExtraCyclesDelaysBase(t *testing.T) {
	fast := newRig(t, 1, defCfg())
	slowCfg := defCfg()
	slowCfg.PIExtraCycles = 40
	slow := newRig(t, 1, slowCfg)
	fast.mcs[0].EnqueueLocal(piMsg(coherence.MsgPIRead, 0, 0))
	slow.mcs[0].EnqueueLocal(piMsg(coherence.MsgPIRead, 0, 0))
	fast.run(2000)
	slow.run(2000)
	f, s := fast.nodes[0].refills[0].when, slow.nodes[0].refills[0].when
	// Both crossings (2 x 40) are paid, modulo MC-tick quantization.
	if s < f+70 {
		t.Fatalf("non-integrated path (%d) must pay both bus crossings over integrated (%d)", s, f)
	}
}

func TestProtocolMissSeparateBus(t *testing.T) {
	r := newRig(t, 1, defCfg())
	mc := r.mcs[0]
	var done []sim.Cycle
	mc.ProtocolMiss(addrmap.DirBase, sim.Desc{}, func() { done = append(done, r.eng.Now()) })
	mc.ProtocolMiss(addrmap.DirBase+128, sim.Desc{}, func() { done = append(done, r.eng.Now()) })
	r.run(1000)
	if len(done) != 2 {
		t.Fatal("protocol misses did not complete")
	}
	if done[0] != 160 {
		t.Fatalf("first protocol miss at %d, want 160", done[0])
	}
	if done[1] <= done[0] {
		t.Fatal("protocol bus must serialize transfers")
	}
	if mc.ProtoMisses != 2 {
		t.Fatal("protocol miss count wrong")
	}
}

func TestSDRAMContentionSerializes(t *testing.T) {
	r := newRig(t, 1, defCfg())
	mc := r.mcs[0]
	t1 := mc.sdramRead(0)
	t2 := mc.sdramRead(128)
	if t2 < t1+80 {
		t.Fatalf("second read (%d) must queue behind the first's transfer (%d+80)", t2, t1)
	}
	// Re-read of an in-flight line merges.
	if mc.sdramRead(0) != t1 {
		t.Fatal("duplicate read of in-flight line must merge")
	}
}

func TestDispatchCountsAndDrain(t *testing.T) {
	r := newRig(t, 2, defCfg())
	r.mcs[1].EnqueueLocal(piMsg(coherence.MsgPIRead, 0, 1))
	r.run(5000)
	if r.mcs[0].QueuedMessages() != 0 || r.mcs[1].QueuedMessages() != 0 {
		t.Fatal("queues must drain")
	}
	if r.net.InFlight() != 0 {
		t.Fatal("network must drain")
	}
	if r.mcs[0].Dispatched == 0 || r.mcs[1].Dispatched == 0 {
		t.Fatal("both nodes must have dispatched handlers")
	}
}

func (n *testNode) LocalMissOutstanding(line uint64) bool { return false }

// TestQueueCountsMatchScan checks the maintained local-queue and total
// counts against a recomputing scan after every cycle while requests
// cross a non-integrated controller's system bus (slots held empty while
// in transit) and dispatch, and that a drifted count is reported.
func TestQueueCountsMatchScan(t *testing.T) {
	cfg := defCfg()
	cfg.PIExtraCycles = 40
	r := newRig(t, 1, cfg)
	mc := r.mcs[0]
	sawTransit, sawLive := false, false
	for c := 0; c < 3000; c++ {
		if c < 400 && c%25 == 0 {
			mc.EnqueueLocal(piMsg(coherence.MsgPIRead, uint64(c)*128, 0))
		}
		r.eng.Step()
		if err := mc.CheckCounts(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		sawTransit = sawTransit || mc.localLive < len(mc.local)
		sawLive = sawLive || mc.localLive > 0
	}
	if !sawTransit || !sawLive {
		t.Fatalf("queue never held both in-transit slots (%v) and live requests (%v)", sawTransit, sawLive)
	}
	if mc.QueuedMessages() != 0 || len(mc.local) != 0 {
		t.Fatal("queues must drain")
	}
	mc.localLive++
	if mc.CheckCounts() == nil {
		t.Fatal("drifted local count not reported")
	}
}
