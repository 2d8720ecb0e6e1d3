package coherence

import (
	"sort"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/snapshot"
)

// Payload tags for the effect codec. Handler traces are the only producers
// of instruction payloads, and these five effect types (plus nil) are the
// complete set — the ReVive extension adds instructions, not payloads.
const (
	payNil uint8 = iota
	paySend
	payRefill
	payNak
	payIAck
	payWBAck
)

// SaveInstr serializes one trace instruction including its effect payload.
// In-flight handler traces (queued on a backend, or captured inside
// pipeline uops) round trip through this codec.
func SaveInstr(e *snapshot.Encoder, in *isa.Instr) {
	e.U64(in.PC)
	e.U8(uint8(in.Op))
	e.U8(uint8(in.Dst))
	e.U8(uint8(in.Src1))
	e.U8(uint8(in.Src2))
	e.U64(in.Addr)
	e.U8(in.Size)
	e.Bool(in.Taken)
	e.U64(in.Target)
	e.U8(uint8(in.Flags))
	e.U64(in.SyncTok)
	switch p := in.Payload.(type) {
	case nil:
		e.U8(payNil)
	case *SendEffect:
		e.U8(paySend)
		e.Bool(p.NeedsMemory)
		network.SaveMessage(e, p.Msg)
	case *RefillEffect:
		e.U8(payRefill)
		e.U64(p.LineAddr)
		e.U8(uint8(p.St))
		e.Int(p.Acks)
		e.Bool(p.Upgrade)
		e.Bool(p.NeedsMemory)
	case *NakEffect:
		e.U8(payNak)
		e.U64(p.LineAddr)
	case *IAckEffect:
		e.U8(payIAck)
		e.U64(p.LineAddr)
	case *WBAckEffect:
		e.U8(payWBAck)
		e.U64(p.LineAddr)
	default:
		panic("coherence: unknown instruction payload")
	}
}

// LoadInstr rebuilds an instruction saved by SaveInstr. Send payload
// messages are drawn from pool; effect structs are heap-allocated — they
// retire into the dispatch unit's effect pool like pooled ones.
func LoadInstr(d *snapshot.Decoder, pool *network.Pool) isa.Instr {
	var in isa.Instr
	in.PC = d.U64()
	in.Op = isa.Op(d.U8())
	in.Dst = isa.Reg(d.U8())
	in.Src1 = isa.Reg(d.U8())
	in.Src2 = isa.Reg(d.U8())
	in.Addr = d.U64()
	in.Size = d.U8()
	in.Taken = d.Bool()
	in.Target = d.U64()
	in.Flags = isa.Flags(d.U8())
	in.SyncTok = d.U64()
	switch tag := d.U8(); tag {
	case payNil:
	case paySend:
		needsMem := d.Bool()
		in.Payload = &SendEffect{NeedsMemory: needsMem, Msg: network.LoadMessage(d, pool)}
	case payRefill:
		in.Payload = &RefillEffect{
			LineAddr: d.U64(), St: cache.State(d.U8()), Acks: d.Int(),
			Upgrade: d.Bool(), NeedsMemory: d.Bool(),
		}
	case payNak:
		in.Payload = &NakEffect{LineAddr: d.U64()}
	case payIAck:
		in.Payload = &IAckEffect{LineAddr: d.U64()}
	case payWBAck:
		in.Payload = &WBAckEffect{LineAddr: d.U64()}
	default:
		d.Fail("unknown payload tag %d", tag)
	}
	return in
}

// SaveTrace serializes a handler trace (nil-ness preserved).
func SaveTrace(e *snapshot.Encoder, trace []isa.Instr) {
	if trace == nil {
		e.Int(-1)
		return
	}
	e.Int(len(trace))
	for i := range trace {
		SaveInstr(e, &trace[i])
	}
}

// LoadTrace rebuilds a trace saved by SaveTrace.
func LoadTrace(d *snapshot.Decoder, pool *network.Pool) []isa.Instr {
	n := d.Count(1)
	if d.Err() != nil {
		return nil
	}
	trace := make([]isa.Instr, 0, n)
	for i := 0; i < n; i++ {
		trace = append(trace, LoadInstr(d, pool))
	}
	return trace
}

// SaveState serializes the ReVive log: epoch, counters, and both maps as
// sorted key/value lists (map iteration order never reaches the stream).
func (l *ReviveLog) SaveState(e *snapshot.Encoder) {
	e.Mark("revive")
	e.U64(l.epoch)
	e.U64(l.Entries)
	e.U64(l.Checkpoints)
	lines := make([]uint64, 0, len(l.logged))
	for k := range l.logged {
		lines = append(lines, k)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	e.Int(len(lines))
	for _, k := range lines {
		e.U64(k)
		e.U64(l.logged[k])
	}
	homes := make([]int, 0, len(l.cursors))
	for k := range l.cursors {
		homes = append(homes, int(k))
	}
	sort.Ints(homes)
	e.Int(len(homes))
	for _, k := range homes {
		e.Int(k)
		e.U64(l.cursors[addrmap.NodeID(k)])
	}
}

// LoadState restores a ReVive log saved by SaveState.
func (l *ReviveLog) LoadState(d *snapshot.Decoder) {
	d.Expect("revive")
	l.epoch = d.U64()
	l.Entries = d.U64()
	l.Checkpoints = d.U64()
	l.logged = make(map[uint64]uint64)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := d.U64()
		l.logged[k] = d.U64()
	}
	l.cursors = make(map[addrmap.NodeID]uint64)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := addrmap.NodeID(d.Int())
		l.cursors[k] = d.U64()
	}
}
