// Package memctrl models the per-node memory controller of Figure 1: the
// local miss interface, the network interface queues, the SDRAM, and the
// handler dispatch unit that accepts protocol messages, initiates the
// overlapped memory access for data replies, runs the coherence handler
// semantics to obtain the executed-path trace, and hands the trace to the
// protocol execution backend — either the embedded dual-issue protocol
// processor (Base/Int* models) or the SMTp protocol thread on the main
// pipeline.
package memctrl

import (
	"fmt"
	"strings"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
)

// Backend executes protocol handler traces. The SMTp pipeline and the
// embedded protocol processor both implement it.
type Backend interface {
	// CanAccept reports whether a new handler may be dispatched now.
	CanAccept() bool
	// Start begins executing a handler trace. Must only be called when
	// CanAccept is true.
	Start(trace []isa.Instr)
}

// NodeIface is how the controller delivers transaction completions back to
// the node's cache/miss machinery.
type NodeIface interface {
	DeliverRefill(line uint64, st cache.State, acks int, upgrade bool)
	DeliverNak(line uint64)
	DeliverIAck(line uint64)
	DeliverWBAck(line uint64)
}

// Config holds the controller's timing parameters, all in CPU cycles.
type Config struct {
	// ClockDiv is the MC clock divider: the controller dispatches on every
	// ClockDiv-th CPU cycle (2 = half processor speed, 5 = 400 MHz at 2 GHz).
	ClockDiv sim.Cycle
	// SDRAMAccessCyc is the SDRAM access time (80 ns).
	SDRAMAccessCyc sim.Cycle
	// SDRAMXferCyc is the line transfer time at SDRAM bandwidth
	// (128 B at 3.2 GB/s = 40 ns).
	SDRAMXferCyc sim.Cycle
	// LocalQueueCap bounds the local miss interface queue (16).
	LocalQueueCap int
	// PIExtraCycles models the processor<->controller bus crossing of a
	// non-integrated controller (Base); zero for integrated controllers.
	PIExtraCycles sim.Cycle
	// ProtoBusXferCyc is the SMTp protocol-miss bus transfer time (the
	// separate 64-bit bus of §2.1).
	ProtoBusXferCyc sim.Cycle
	// MemReadTableCap is the initial capacity of the in-flight SDRAM read
	// table (grown as the touched-line footprint demands; 1024).
	MemReadTableCap int
}

// MC is one node's memory controller.
type MC struct {
	cfg  Config
	eng  *sim.Engine
	env  coherence.Env
	node NodeIface
	net  network.Port
	back Backend

	table      *coherence.Table
	local      []*network.Message
	in         [network.NumVCs]msgRing
	localFirst bool
	queued     int // live messages across local+in (excludes in-transit slots)
	localLive  int // non-nil entries of local (the queue.local depth)

	// Allocation-free dispatch machinery: handled messages are released to
	// the machine's pool, handler traces append into recycled buffers
	// returned by the backend on completion, and the handler context is
	// reused across dispatches.
	pool      *network.Pool
	effects   *coherence.EffectPool
	traceFree [][]isa.Instr
	fireFree  []*fire
	hctx      coherence.Ctx

	sdramBusy sim.Cycle
	memReads  *readTable // line -> SDRAM data ready time

	protoBusy sim.Cycle // separate protocol-miss bus (SMTp)

	// Statistics.
	Dispatched     uint64
	LocalFull      uint64
	MemReadsIssued uint64
	MemWrites      uint64
	ProtoMisses    uint64

	// DispatchByType counts dispatched handlers per protocol message type
	// (the coherence-protocol mix behind Table 7's occupancy numbers).
	DispatchByType [coherence.NumMsgTypes]uint64

	// Input-queue depth trackers, sampled once per MC clock.
	localDepth stats.Peak
	vcDepth    [network.NumVCs]stats.Peak
}

// RegisterMetrics publishes the controller's counters under the given
// scope: dispatch totals and per-message-type breakdown, SDRAM traffic,
// the protocol-miss bus, and peak/mean input-queue depths per virtual
// network.
func (mc *MC) RegisterMetrics(s *stats.Scope) {
	s.CounterFunc("dispatched", func() uint64 { return mc.Dispatched })
	s.CounterFunc("local_full", func() uint64 { return mc.LocalFull })
	s.CounterFunc("mem_reads", func() uint64 { return mc.MemReadsIssued })
	s.CounterFunc("mem_writes", func() uint64 { return mc.MemWrites })
	s.CounterFunc("proto_misses", func() uint64 { return mc.ProtoMisses })
	d := s.Scope("dispatch")
	for t := coherence.MsgType(0); t < coherence.NumMsgTypes; t++ {
		t := t
		d.CounterFunc(strings.ToLower(t.String()), func() uint64 { return mc.DispatchByType[t] })
	}
	q := s.Scope("queue")
	q.PeakOf("local", &mc.localDepth)
	for vc := network.VC(0); vc < network.NumVCs; vc++ {
		q.PeakOf(vc.String(), &mc.vcDepth[vc])
	}
}

// sampleQueuesN records the input-queue depths for the queue.* peaks, as n
// consecutive identical MC-clock samples (n is 1 on a real tick; the number
// of elided ticks when the kernel skips an idle window, during which the
// queues are necessarily frozen).
func (mc *MC) sampleQueuesN(count uint64) {
	mc.localDepth.SampleN(mc.localLive, count)
	for vc := range mc.in {
		mc.vcDepth[vc].SampleN(mc.in[vc].size, count)
	}
}

// New builds a controller. The backend must be set with SetBackend before
// the first dispatch.
func New(cfg Config, eng *sim.Engine, env coherence.Env, node NodeIface, net network.Port) *MC {
	if cfg.ClockDiv == 0 {
		cfg.ClockDiv = 2
	}
	if cfg.LocalQueueCap == 0 {
		cfg.LocalQueueCap = 16
	}
	if cfg.MemReadTableCap == 0 {
		cfg.MemReadTableCap = 1024
	}
	pool := network.NewPool()
	if net != nil {
		pool = net.MsgPool()
	}
	mc := &MC{
		cfg:      cfg,
		eng:      eng,
		env:      env,
		node:     node,
		net:      net,
		pool:     pool,
		effects:  coherence.NewEffectPool(),
		table:    coherence.DefaultTable(),
		memReads: newReadTable(cfg.MemReadTableCap),
	}
	mc.hctx.Effects = mc.effects
	return mc
}

// SetTable installs an alternative protocol table (extensions, §6).
func (mc *MC) SetTable(t *coherence.Table) { mc.table = t }

// SetBackend installs the protocol execution backend.
func (mc *MC) SetBackend(b Backend) { mc.back = b }

// Cfg returns the configuration.
func (mc *MC) Cfg() Config { return mc.cfg }

// EnqueueLocal queues a processor-interface request (an L2 miss or
// writeback) into the local miss interface. Returns false when the queue is
// full — the caller must retry.
func (mc *MC) EnqueueLocal(m *network.Message) bool {
	if len(mc.local) >= mc.cfg.LocalQueueCap {
		mc.LocalFull++
		return false
	}
	m.AssertLive("memctrl.EnqueueLocal")
	mc.enqueueLocalReady(m)
	return true
}

// EnqueueLocalPI is the pipeline's allocation-free local enqueue: the
// controller builds the processor-interface message from the machine pool
// itself, so a full queue (the caller retries) costs nothing.
func (mc *MC) EnqueueLocalPI(t uint8, line uint64) bool {
	if len(mc.local) >= mc.cfg.LocalQueueCap {
		mc.LocalFull++
		return false
	}
	m := mc.pool.Get()
	id := mc.env.NodeID()
	m.Src, m.Dst, m.Requester = id, id, id
	m.Type, m.Addr = t, line
	mc.enqueueLocalReady(m)
	return true
}

func (mc *MC) enqueueLocalReady(m *network.Message) {
	if mc.cfg.PIExtraCycles > 0 {
		// Non-integrated controller: the request crosses the system bus.
		mc.eng.AfterDesc(mc.cfg.PIExtraCycles, mc.deferredDesc(m), func() { mc.localDeferred(m) })
		mc.local = append(mc.local, nil) // hold the slot while in transit
		return
	}
	mc.local = append(mc.local, m)
	mc.queued++
	mc.localLive++
}

func (mc *MC) localDeferred(m *network.Message) {
	mc.queued++
	mc.localLive++
	for i := range mc.local {
		if mc.local[i] == nil {
			mc.local[i] = m
			return
		}
	}
	mc.local = append(mc.local, m)
}

// EnqueueNet queues an arriving network message into its virtual network's
// input queue.
func (mc *MC) EnqueueNet(m *network.Message) {
	m.AssertLive("memctrl.EnqueueNet")
	mc.in[m.VC].push(m)
	mc.queued++
}

// QueuedMessages reports the total queued (drain checking).
func (mc *MC) QueuedMessages() int {
	return mc.queued
}

// CheckCounts compares the maintained queue counts with a recomputing scan
// of the queues they summarize.
func (mc *MC) CheckCounts() error {
	live := countLive(mc.local)
	if mc.localLive != live {
		return fmt.Errorf("local queue count %d, queue holds %d messages", mc.localLive, live)
	}
	for vc := range mc.in {
		live += mc.in[vc].size
	}
	if mc.queued != live {
		return fmt.Errorf("queued count %d, queues hold %d messages", mc.queued, live)
	}
	return nil
}

// countLive counts the messages in a local queue, skipping slots held for
// requests still crossing the system bus.
func countLive(q []*network.Message) int {
	n := 0
	for _, m := range q {
		if m != nil {
			n++
		}
	}
	return n
}

// sdramRead starts (or merges into) a read of line, returning the cycle the
// data will be available.
func (mc *MC) sdramRead(line uint64) sim.Cycle {
	if ready, ok := mc.memReads.get(line); ok && ready > mc.eng.Now() {
		return ready
	}
	now := mc.eng.Now()
	start := now
	if mc.sdramBusy > start {
		start = mc.sdramBusy
	}
	ready := start + mc.cfg.SDRAMAccessCyc
	mc.sdramBusy = start + mc.cfg.SDRAMXferCyc
	mc.memReads.put(line, ready)
	mc.MemReadsIssued++
	return ready
}

// sdramWrite charges a line write's bandwidth.
func (mc *MC) sdramWrite() {
	now := mc.eng.Now()
	if mc.sdramBusy < now {
		mc.sdramBusy = now
	}
	mc.sdramBusy += mc.cfg.SDRAMXferCyc
	mc.MemWrites++
}

// ProtocolMiss services an SMTp protocol-thread L2 miss over the separate
// protocol bus, bypassing the local miss interface (§2.1). cb runs when the
// line arrives; d is the caller's restore descriptor for the completion
// event (the pipeline owns the closure, so it owns the descriptor too).
func (mc *MC) ProtocolMiss(line uint64, d sim.Desc, cb func()) {
	now := mc.eng.Now()
	start := now
	if mc.protoBusy > start {
		start = mc.protoBusy
	}
	ready := start + mc.cfg.SDRAMAccessCyc
	xfer := mc.cfg.ProtoBusXferCyc
	if xfer == 0 {
		xfer = mc.cfg.SDRAMXferCyc
	}
	mc.protoBusy = start + xfer
	mc.ProtoMisses++
	mc.eng.ScheduleDesc(ready, d, cb)
}

// pick selects the next message to dispatch: replies first (they always
// drain, keeping the protocol deadlock-free), then interventions, then
// requests, alternating between the local miss interface and the network
// request queue for fairness.
func (mc *MC) pick() *network.Message {
	if m := mc.popIn(network.VCReply); m != nil {
		return m
	}
	if m := mc.popIn(network.VCIntervention); m != nil {
		return m
	}
	mc.localFirst = !mc.localFirst
	if mc.localFirst {
		if m := mc.popLocal(); m != nil {
			return m
		}
		return mc.popIn(network.VCRequest)
	}
	if m := mc.popIn(network.VCRequest); m != nil {
		return m
	}
	return mc.popLocal()
}

func (mc *MC) popIn(vc network.VC) *network.Message {
	m := mc.in[vc].pop()
	if m != nil {
		mc.queued--
	}
	return m
}

func (mc *MC) popLocal() *network.Message {
	for i, m := range mc.local {
		if m != nil {
			mc.local = append(mc.local[:i], mc.local[i+1:]...)
			mc.queued--
			mc.localLive--
			return m
		}
	}
	return nil
}

// Tick runs the handler dispatch unit: one dispatch per MC clock when the
// backend has room. Registered with the engine at period cfg.ClockDiv.
func (mc *MC) Tick(now sim.Cycle) {
	mc.sampleQueuesN(1)
	if mc.back == nil || !mc.back.CanAccept() {
		return
	}
	m := mc.pick()
	if m == nil {
		return
	}
	mc.dispatch(m)
}

// NextWork implements sim.Quiescer. With queued messages the controller has
// work every MC clock; with empty queues nothing happens until a message
// arrives — and every arrival path (EnqueueLocal, EnqueueNet, localDeferred)
// runs from a busy component's tick or a scheduled event, both of which
// bound the kernel's skip on their own.
func (mc *MC) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	if mc.queued > 0 {
		return 0, false
	}
	return sim.NoWork, true
}

// Skipped implements sim.SkipAware: n elided idle MC clocks each sample the
// (frozen, empty-of-live-messages) queue depths, and — when the backend
// could accept — each run pick() far enough to toggle the local/network
// fairness bit before finding nothing to dispatch.
func (mc *MC) Skipped(n uint64, _ sim.Cycle) {
	mc.sampleQueuesN(n)
	if mc.back != nil && mc.back.CanAccept() && n%2 == 1 {
		mc.localFirst = !mc.localFirst
	}
}

func (mc *MC) dispatch(m *network.Message) {
	mc.Dispatched++
	t := coherence.MsgType(m.Type)
	if t < coherence.NumMsgTypes {
		mc.DispatchByType[t]++
	}
	// Overlap the memory access with handler execution when the message may
	// be answered with line data from this node's memory (paper §2.1).
	if t.WantsMemory() && mc.env.HomeOf(m.Addr) == mc.env.NodeID() {
		mc.sdramRead(addrmap.LineAddr(m.Addr))
	}
	// Writebacks deposit data into memory.
	if t == MsgWBType || t == MsgSHWBType || (t == MsgPIWritebackType && mc.env.HomeOf(m.Addr) == mc.env.NodeID()) {
		mc.sdramWrite()
	}
	trace := mc.table.HandleInto(&mc.hctx, mc.env, mc.pool, m, mc.getTraceBuf())
	// The handler has run: its effects copied everything they need, so the
	// dispatched message is dead here — the universal release point.
	mc.pool.Put(m)
	mc.back.Start(trace)
}

// getTraceBuf returns a recycled handler-trace buffer.
func (mc *MC) getTraceBuf() []isa.Instr {
	if k := len(mc.traceFree); k > 0 {
		b := mc.traceFree[k-1]
		mc.traceFree[k-1] = nil
		mc.traceFree = mc.traceFree[:k-1]
		return b[:0]
	}
	return make([]isa.Instr, 0, 64)
}

// ReleaseTrace returns a handler trace to the buffer free list. The
// protocol execution backend calls it when the handler completes (PP done;
// SMTp ldctxt graduation), after which nothing references the buffer —
// every trace instruction was copied by value into its uop.
func (mc *MC) ReleaseTrace(t []isa.Instr) {
	if cap(t) == 0 {
		return
	}
	mc.traceFree = append(mc.traceFree, t)
}

// Aliases to avoid exporting coherence constants through this package's API.
const (
	MsgWBType          = coherence.MsgWB
	MsgSHWBType        = coherence.MsgSHWB
	MsgPIWritebackType = coherence.MsgPIWriteback
)

// FireEffect applies a trace instruction's payload. Called by the backend
// when the carrying instruction completes (PP retire or SMTp graduation).
// This is the single consumer of effect payloads: each one is copied into a
// pooled fire record (or fired inline) and released back to the dispatch
// unit's effect pool before the action runs.
func (mc *MC) FireEffect(p interface{}) {
	switch e := p.(type) {
	case *coherence.SendEffect:
		f := mc.getFire()
		f.kind, f.msg = fireSend, e.Msg
		needsMem, addr := e.NeedsMemory, e.Msg.Addr
		mc.effects.PutSend(e)
		mc.fireWhenReady(needsMem, addr, f)
	case *coherence.RefillEffect:
		f := mc.getFire()
		f.kind, f.line, f.st, f.acks, f.upgrade, f.crossed =
			fireRefill, e.LineAddr, e.St, e.Acks, e.Upgrade, false
		needsMem := e.NeedsMemory
		mc.effects.PutRefill(e)
		mc.fireWhenReady(needsMem, f.line, f)
	case *coherence.NakEffect:
		line := e.LineAddr
		mc.effects.PutNak(e)
		mc.node.DeliverNak(line)
	case *coherence.IAckEffect:
		line := e.LineAddr
		mc.effects.PutIAck(e)
		mc.node.DeliverIAck(line)
	case *coherence.WBAckEffect:
		line := e.LineAddr
		mc.effects.PutWBAck(e)
		mc.node.DeliverWBAck(line)
	default:
		panic("memctrl: unknown effect payload")
	}
}

// fireWhenReady runs f now, or once the overlapped SDRAM read of its line
// has completed.
func (mc *MC) fireWhenReady(needsMem bool, addr uint64, f *fire) {
	if !needsMem {
		f.exec()
		return
	}
	line := addrmap.LineAddr(addr)
	ready, ok := mc.memReads.get(line)
	if !ok {
		// Defensive: the dispatch-time read was skipped; start it now.
		ready = mc.sdramRead(line)
	}
	if ready <= mc.eng.Now() {
		f.exec()
		return
	}
	mc.eng.ScheduleDesc(ready, mc.fireDesc(f), f.run)
}

// ProtoBusBusyUntil exposes the protocol bus reservation (debug aid).
func (mc *MC) ProtoBusBusyUntil() sim.Cycle { return mc.protoBusy }
