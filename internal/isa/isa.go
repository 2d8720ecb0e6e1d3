// Package isa defines the abstract instruction set executed by the simulated
// SMT pipeline and by the embedded protocol processor.
//
// The simulator is execution-driven for the coherence protocol (handler code
// really manipulates directory bytes and sends messages) and trace-driven for
// the applications (workload generators synthesize per-thread instruction
// streams with concrete PCs, effective addresses, and branch outcomes). Both
// producers speak this package's Instr type.
//
// The ISA mirrors the paper's MIPS-based configuration: integer and FP ALU
// operations with R10000 latencies, loads/stores/prefetches, branches, the
// protocol-thread uncached operations (switch, ldctxt, and the two uncached
// stores that make up send), and the special bit-manipulation ALU ops
// (population count and friends) used by protocol handlers.
package isa

// Reg names a logical register. 1-32 are integer registers, 33-64 are
// floating-point registers. The zero value is RegNone ("no register") so
// that omitted operands in instruction literals never alias a real
// register.
type Reg int8

// RegNone marks an absent operand or destination.
const RegNone Reg = 0

// NumLogicalInt and NumLogicalFP are per-thread logical register counts.
const (
	NumLogicalInt = 32
	NumLogicalFP  = 32
	NumLogical    = NumLogicalInt + NumLogicalFP

	// FirstFP is the lowest floating-point register name.
	FirstFP Reg = NumLogicalInt + 1
)

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= FirstFP }

// Valid reports whether r names a register at all.
func (r Reg) Valid() bool { return r >= 1 && r <= NumLogical }

// Op is an operation kind.
type Op uint8

// Operation kinds.
const (
	OpNop Op = iota
	OpIntALU
	OpIntMul
	OpIntDiv
	OpBitOp // protocol bit-manipulation (popcount, count-trailing-zeros, ...)
	OpFPALU
	OpFPMul
	OpFPDivSP
	OpFPDivDP
	OpLoad
	OpStore
	OpPrefetch  // non-binding prefetch
	OpPrefetchX // prefetch exclusive
	OpBranch
	OpSwitch   // protocol: uncached load of the next request's header
	OpLdctxt   // protocol: uncached load of the next request's address; last instr of every handler
	OpSendHdr  // protocol: uncached store to the MC header register
	OpSendAddr // protocol: uncached store to the MC address register; initiates the send
	OpSyncWait // application pseudo-op: block at commit head until the sync manager releases it
	numOps
)

var opNames = [numOps]string{
	"nop", "ialu", "imul", "idiv", "bitop", "fpalu", "fpmul", "fpdiv.s", "fpdiv.d",
	"load", "store", "pref", "prefx", "branch", "switch", "ldctxt", "send.hdr", "send.addr", "syncwait",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// IsMem reports whether the op occupies a load/store queue slot.
func (o Op) IsMem() bool {
	switch o {
	case OpLoad, OpStore, OpPrefetch, OpPrefetchX, OpSwitch, OpLdctxt, OpSendHdr, OpSendAddr:
		return true
	}
	return false
}

// IsLoad reports whether the op reads memory (including uncached loads).
func (o Op) IsLoad() bool {
	switch o {
	case OpLoad, OpSwitch, OpLdctxt:
		return true
	}
	return false
}

// IsStore reports whether the op writes memory (including uncached stores).
func (o Op) IsStore() bool {
	switch o {
	case OpStore, OpSendHdr, OpSendAddr:
		return true
	}
	return false
}

// IsUncached reports whether the op bypasses the cache hierarchy and talks
// directly to memory-controller registers.
func (o Op) IsUncached() bool {
	switch o {
	case OpSwitch, OpLdctxt, OpSendHdr, OpSendAddr:
		return true
	}
	return false
}

// IsFPOp reports whether the op executes on the FP units.
func (o Op) IsFPOp() bool {
	switch o {
	case OpFPALU, OpFPMul, OpFPDivSP, OpFPDivDP:
		return true
	}
	return false
}

// NonSpeculative reports whether the op must execute only at the head of its
// thread's active list (undoing it is impossible, e.g. a send).
func (o Op) NonSpeculative() bool {
	switch o {
	case OpSwitch, OpLdctxt, OpSendHdr, OpSendAddr, OpSyncWait:
		return true
	}
	return false
}

// Latency returns the execution latency in cycles once the op begins
// execution (paper Table 2; memory ops take their cache latency instead).
func (o Op) Latency() int {
	switch o {
	case OpIntMul:
		return 6
	case OpIntDiv:
		return 35
	case OpFPDivSP:
		return 12
	case OpFPDivDP:
		return 19
	default:
		return 1
	}
}

// Pipelined reports whether a functional unit can accept a new op of this
// kind every cycle while one is in flight.
func (o Op) Pipelined() bool {
	switch o {
	case OpIntDiv, OpFPDivSP, OpFPDivDP:
		return false
	}
	return true
}

// MaxTraceLen bounds the length of a protocol handler's dynamic trace:
// the coherence interpreter refuses to emit more, and a snapshot restore
// rejects a longer one.
const MaxTraceLen = 4096

// Flags annotate instructions.
type Flags uint8

// Flag bits.
const (
	// FlagWrongPath marks a pipeline-synthesized wrong-path instruction.
	FlagWrongPath Flags = 1 << iota
	// FlagLastInHandler marks the ldctxt that terminates a protocol handler.
	FlagLastInHandler
	// FlagHandlerStart marks the first instruction of a protocol handler.
	FlagHandlerStart
	// FlagScratchDead marks an instruction after which the handler's scratch
	// registers are dead (used by the scratch-register-freeing ablation).
	FlagScratchDead
)

// Instr is one dynamic instruction. Instances are created by workload
// generators and protocol-handler trace builders; the pipeline treats them
// as immutable except for the fields it owns (sequence numbers and flags it
// sets itself).
type Instr struct {
	PC     uint64 // instruction address (drives I-cache, BTB, predictors)
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Addr   uint64 // effective address for memory ops
	Size   uint8  // access size in bytes for memory ops
	Taken  bool   // resolved direction for branches
	Target uint64 // branch target (when taken); fall-through is PC+4
	Flags  Flags

	// SyncTok identifies the synchronization event for OpSyncWait.
	SyncTok uint64

	// Payload carries a side effect fired when the instruction graduates:
	// for OpSendAddr it is the outbound protocol message; for OpLdctxt it is
	// handler-completion context. Interpreted by the node glue.
	Payload interface{}
}

// FallThrough returns the next sequential PC.
func (in *Instr) FallThrough() uint64 { return in.PC + 4 }

// NextPC returns the architecturally correct next PC.
func (in *Instr) NextPC() uint64 {
	if in.Op == OpBranch && in.Taken {
		return in.Target
	}
	return in.FallThrough()
}
