package pipeline

import (
	"smtpsim/internal/bpred"
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// thread is one hardware context's private state.
type thread struct {
	id         int
	isProtocol bool

	source InstrSource // nil for the protocol thread

	// Fetch.
	fetchStallUntil sim.Cycle
	fetchBlockedICM bool   // waiting on an instruction-cache fill
	fetchBlockedSyn bool   // stopped behind a fetched SyncWait
	synPolled       bool   // that SyncWait has registered its first poll
	streamLine      uint64 // one-line fetch-stream buffer (last I-fill)
	wrongPath       bool
	wrongPC         uint64
	wrongSeq        uint64

	// Rename.
	mapTable [isa.NumLogical + 1]int16
	ras      *bpred.RAS

	// Active list (reorder buffer): ring of capacity cfg.ActiveList.
	rob      []*uop
	robHead  int
	robCount int

	// ICOUNT: instructions in the front-end (decode/rename queues + issue
	// queues), per the ICOUNT.2.8 policy.
	frontCount int

	// occ is this context's share of the shared structures, kept current
	// at every site that changes them so per-cycle sampling reads counts
	// instead of scanning.
	occ occupancy

	// memQ is this context's logical section of the load/store queue
	// (§2): its renamed, not yet issued memory operations in program
	// order. Only the head may issue; issued ops leave from the head,
	// squashed ones from the tail.
	memQ []*uop
}

// memPopHead removes the head of memQ (issued, or graduated unissued).
func (t *thread) memPopHead() {
	t.memQ = append(t.memQ[:0], t.memQ[1:]...)
}

// occupancy is a context's resource holdings (paper Table 9): branch-stack
// checkpoints, active-list entries holding an integer rename, and integer
// issue-queue and load/store-queue entries.
type occupancy struct {
	brStack, intRegs, iq, lsq int
}

// holdsIntReg reports whether u, while on the active list, holds an integer
// rename register.
func holdsIntReg(u *uop) bool { return u.physDst >= 0 && !u.in.Dst.IsFP() }

func newThread(id int, isProtocol bool, cfg Config) *thread {
	return &thread{
		id:         id,
		isProtocol: isProtocol,
		ras:        bpred.NewRAS(32),
		rob:        make([]*uop, cfg.ActiveList),
	}
}

func (t *thread) robFull() bool { return t.robCount == len(t.rob) }

func (t *thread) robPush(u *uop) {
	if t.robFull() {
		panic("pipeline: active list overflow")
	}
	t.rob[(t.robHead+t.robCount)%len(t.rob)] = u
	t.robCount++
	if holdsIntReg(u) {
		t.occ.intRegs++
	}
}

func (t *thread) robPeek() *uop {
	if t.robCount == 0 {
		return nil
	}
	return t.rob[t.robHead]
}

func (t *thread) robPop() *uop {
	u := t.robPeek()
	if u == nil {
		panic("pipeline: pop of empty active list")
	}
	t.rob[t.robHead] = nil
	t.robHead = (t.robHead + 1) % len(t.rob)
	t.robCount--
	if holdsIntReg(u) {
		t.occ.intRegs--
	}
	return u
}

// robTailPop removes the youngest entry (squash path).
func (t *thread) robTailPop() *uop {
	if t.robCount == 0 {
		panic("pipeline: tail pop of empty active list")
	}
	idx := (t.robHead + t.robCount - 1) % len(t.rob)
	u := t.rob[idx]
	t.rob[idx] = nil
	t.robCount--
	if holdsIntReg(u) {
		t.occ.intRegs--
	}
	return u
}

func (t *thread) robTail() *uop {
	if t.robCount == 0 {
		return nil
	}
	return t.rob[(t.robHead+t.robCount-1)%len(t.rob)]
}

// freeList is a physical-register free list with an optional reserved pool
// usable only by the protocol thread (§2.2).
type freeList struct {
	free     []int16
	reserved int
}

func newFreeList(n int) *freeList {
	f := &freeList{free: make([]int16, 0, n)}
	for i := n - 1; i >= 0; i-- {
		f.free = append(f.free, int16(i))
	}
	return f
}

func (f *freeList) reserve(n int) { f.reserved = n }

// alloc returns a register or -1. Application threads cannot take the last
// `reserved` registers.
func (f *freeList) alloc(isProtocol bool) int16 {
	min := 0
	if !isProtocol {
		min = f.reserved
	}
	if len(f.free) <= min {
		return -1
	}
	r := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	return r
}

func (f *freeList) release(r int16) {
	f.free = append(f.free, r)
}

func (f *freeList) available() int { return len(f.free) }
