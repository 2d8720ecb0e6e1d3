package memctrl

import (
	"fmt"
	"sort"

	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
	"smtpsim/internal/stats"
)

// Event-descriptor kinds claimed by the memory controller (range 64..95;
// pipeline kinds live below 32, the network's delivery at 32).
const (
	// KMCDeferred is a local-miss enqueue crossing the non-integrated
	// controller's system bus (enqueueLocalReady's PIExtraCycles leg).
	KMCDeferred uint8 = 64
	// KMCFire is a deferred effect action waiting on the overlapped SDRAM
	// read or crossing the processor bus (fireWhenReady / fire.exec).
	KMCFire uint8 = 65
)

// Bit positions packed into a KMCFire descriptor's first word alongside
// the fire kind.
const (
	fireDescCrossed = 1 << 8
	fireDescUpgrade = 1 << 9
)

func (mc *MC) owner() int32 { return int32(mc.env.NodeID()) }

// Pool exposes the controller's message pool so node-level restore can
// rebuild message lists (parked interventions) on the same recycler the
// live path uses.
func (mc *MC) Pool() *network.Pool { return mc.pool }

// LoadInstr decodes a coherence-handler instruction, drawing send payloads
// from this controller's message pool. It is the Decoder-side counterpart
// of coherence.SaveInstr for every consumer that restores traces owned by
// this controller (the node's PP backend, the pipeline's protocol thread).
func (mc *MC) LoadInstr(d *snapshot.Decoder) isa.Instr {
	return coherence.LoadInstr(d, mc.pool)
}

// deferredDesc describes a localDeferred event; the message is fully
// encoded in the descriptor.
func (mc *MC) deferredDesc(m *network.Message) sim.Desc {
	d := sim.Desc{Owner: mc.owner(), Kind: KMCDeferred}
	w := network.PackMessage(m)
	copy(d.Args[:4], w[:])
	return d
}

// fireDesc describes a scheduled fire record: kind and flag bits in the
// first word, then the send's message or the refill's line/state/acks.
func (mc *MC) fireDesc(f *fire) sim.Desc {
	d := sim.Desc{Owner: mc.owner(), Kind: KMCFire}
	d.Args[0] = uint64(f.kind)
	if f.crossed {
		d.Args[0] |= fireDescCrossed
	}
	if f.upgrade {
		d.Args[0] |= fireDescUpgrade
	}
	switch f.kind {
	case fireSend:
		w := network.PackMessage(f.msg)
		copy(d.Args[1:5], w[:])
	case fireRefill:
		d.Args[1] = f.line
		d.Args[2] = uint64(f.st)
		d.Args[3] = uint64(int64(f.acks))
	}
	return d
}

// Rehydrate rebuilds the closure of a snapshotted controller event and
// re-injects it with its original heap key.
func (mc *MC) Rehydrate(at sim.Cycle, pos [3]uint64, seq uint64, d sim.Desc) error {
	switch d.Kind {
	case KMCDeferred:
		m := mc.pool.Get()
		network.UnpackMessage([4]uint64{d.Args[0], d.Args[1], d.Args[2], d.Args[3]}, m)
		return mc.eng.RestoreEvent(at, pos, seq, d, func() { mc.localDeferred(m) })
	case KMCFire:
		f := mc.getFire()
		f.kind = uint8(d.Args[0])
		f.crossed = d.Args[0]&fireDescCrossed != 0
		f.upgrade = d.Args[0]&fireDescUpgrade != 0
		switch f.kind {
		case fireSend:
			m := mc.pool.Get()
			network.UnpackMessage([4]uint64{d.Args[1], d.Args[2], d.Args[3], d.Args[4]}, m)
			f.msg = m
		case fireRefill:
			f.line = d.Args[1]
			f.st = cache.State(d.Args[2])
			f.acks = int(int64(d.Args[3]))
		default:
			return fmt.Errorf("memctrl: unknown fire kind %d in descriptor", f.kind)
		}
		return mc.eng.RestoreEvent(at, pos, seq, d, f.run)
	default:
		return fmt.Errorf("memctrl: unknown event kind %d", d.Kind)
	}
}

// SaveState serializes the controller's queues, SDRAM and bus reservations,
// the in-flight read table (sorted by line, never by table layout), and its
// counters. The backend is saved separately by the owner (the node's
// PPBackend, or the pipeline's protocol thread on SMTp).
func (mc *MC) SaveState(e *snapshot.Encoder) {
	e.Mark("mc")
	e.Int(len(mc.local))
	for _, m := range mc.local {
		e.Bool(m != nil)
		if m != nil {
			network.SaveMessage(e, m)
		}
	}
	for vc := range mc.in {
		r := &mc.in[vc]
		e.Int(r.size)
		for i := 0; i < r.size; i++ {
			network.SaveMessage(e, r.buf[(r.head+i)&(len(r.buf)-1)])
		}
	}
	e.Bool(mc.localFirst)
	e.Int(mc.queued)
	e.U64(uint64(mc.sdramBusy))
	e.U64(uint64(mc.protoBusy))

	t := mc.memReads
	keys := make([]uint64, 0, t.n)
	for i, live := range t.live {
		if live {
			keys = append(keys, t.keys[i])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.Int(len(keys))
	for _, k := range keys {
		v, _ := t.get(k)
		e.U64(k)
		e.U64(uint64(v))
	}

	e.U64(mc.Dispatched)
	e.U64(mc.LocalFull)
	e.U64(mc.MemReadsIssued)
	e.U64(mc.MemWrites)
	e.U64(mc.ProtoMisses)
	for i := range mc.DispatchByType {
		e.U64(mc.DispatchByType[i])
	}
	savePeak(e, &mc.localDepth)
	for vc := range mc.vcDepth {
		savePeak(e, &mc.vcDepth[vc])
	}
}

// LoadState restores state saved by SaveState. Queued messages are drawn
// from the machine pool; the read table is rebuilt by insertion, which
// yields an equivalent (lookup-identical) layout regardless of the saved
// table's growth history.
func (mc *MC) LoadState(d *snapshot.Decoder) {
	d.Expect("mc")
	mc.local = mc.local[:0]
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		if d.Bool() {
			mc.local = append(mc.local, network.LoadMessage(d, mc.pool))
		} else {
			mc.local = append(mc.local, nil)
		}
	}
	for vc := range mc.in {
		r := &mc.in[vc]
		for r.pop() != nil {
		}
		r.head = 0
		for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
			r.push(network.LoadMessage(d, mc.pool))
		}
	}
	mc.localFirst = d.Bool()
	mc.queued = d.Int()
	mc.localLive = countLive(mc.local)
	if err := mc.CheckCounts(); d.Err() == nil && err != nil {
		d.Fail("%v", err)
	}
	mc.sdramBusy = sim.Cycle(d.U64())
	mc.protoBusy = sim.Cycle(d.U64())

	mc.memReads = newReadTable(mc.cfg.MemReadTableCap)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := d.U64()
		mc.memReads.put(k, sim.Cycle(d.U64()))
	}

	mc.Dispatched = d.U64()
	mc.LocalFull = d.U64()
	mc.MemReadsIssued = d.U64()
	mc.MemWrites = d.U64()
	mc.ProtoMisses = d.U64()
	for i := range mc.DispatchByType {
		mc.DispatchByType[i] = d.U64()
	}
	loadPeak(d, &mc.localDepth)
	for vc := range mc.vcDepth {
		loadPeak(d, &mc.vcDepth[vc])
	}
}

func savePeak(e *snapshot.Encoder, p *stats.Peak) {
	max, samples, sum := p.State()
	e.Int(max)
	e.U64(samples)
	e.U64(sum)
}

func loadPeak(d *snapshot.Decoder, p *stats.Peak) {
	max := d.Int()
	samples := d.U64()
	sum := d.U64()
	p.SetState(max, samples, sum)
}

// SaveState serializes the protocol-processor backend: the engine plus the
// recycling alias to the in-flight trace (restored by re-aliasing the
// engine's restored trace).
func (b *PPBackend) SaveState(e *snapshot.Encoder) {
	b.Engine.SaveState(e, coherence.SaveInstr)
}

// LoadState restores the backend; mc supplies the message pool for send
// payloads inside the restored trace.
func (b *PPBackend) LoadState(d *snapshot.Decoder, mc *MC) {
	b.Engine.LoadState(d, func(dec *snapshot.Decoder) isa.Instr {
		return coherence.LoadInstr(dec, mc.pool)
	})
	b.cur = b.Engine.CurrentTrace()
}
