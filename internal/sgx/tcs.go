package sgx

import "autarky/internal/mmu"

// ExitInfo describes the exception that caused an AEX, as recorded in the
// SSA frame. Only the trusted enclave can read it; the OS sees a masked
// view (paper §5.1.2).
type ExitInfo struct {
	Valid bool
	Fault mmu.Fault // the unmasked fault
}

// SSAFrame is one state-save-area frame. Register state is abstracted: the
// simulator resumes execution by retrying the faulting access, so only the
// exception information needs to be architecturally visible.
type SSAFrame struct {
	Exit ExitInfo
}

// TCS is a thread control structure: the per-thread enclave entry state,
// including the SSA stack and — new in Autarky — the pending-exception flag
// (paper §5.1.3).
type TCS struct {
	ID uint64

	// NSSA is the number of SSA frames provisioned; an AEX that would
	// exceed it renders the enclave un-executable on this TCS.
	NSSA int

	// cssa is the current SSA index (number of frames pushed).
	cssa int
	ssa  []SSAFrame

	// pendingException is Autarky's new TCS flag: set by AEX on a page
	// fault, cleared by EENTER, checked by ERESUME.
	pendingException bool

	// inEnclaveResumed is a model flag: the handler resumed the faulting
	// context itself (AttrInEnclaveResume / AttrElideAEX paths), so the
	// normal EEXIT+ERESUME epilogue must be skipped.
	inEnclaveResumed bool
}

// NewTCS returns a TCS with nssa state-save frames.
func NewTCS(id uint64, nssa int) *TCS {
	if nssa < 1 {
		panic("sgx: TCS needs at least one SSA frame")
	}
	return &TCS{ID: id, NSSA: nssa, ssa: make([]SSAFrame, nssa)}
}

// CSSA reports the current SSA index (pushed frames).
func (t *TCS) CSSA() int { return t.cssa }

// PendingException reports the Autarky pending-exception flag.
func (t *TCS) PendingException() bool { return t.pendingException }

// pushSSA records an exception and advances CSSA. It returns
// ErrSSAExhausted when no frame is free.
func (t *TCS) pushSSA(f mmu.Fault) error {
	return t.pushFrame(SSAFrame{Exit: ExitInfo{Valid: true, Fault: f}})
}

// pushFrame pushes a raw SSA frame (timer interrupts push a frame with no
// exception info).
func (t *TCS) pushFrame(fr SSAFrame) error {
	if t.cssa >= t.NSSA {
		return ErrSSAExhausted
	}
	t.ssa[t.cssa] = fr
	t.cssa++
	return nil
}

// popSSA discards the top frame (ERESUME side).
func (t *TCS) popSSA() {
	if t.cssa == 0 {
		panic("sgx: popSSA on empty SSA stack")
	}
	t.cssa--
	t.ssa[t.cssa] = SSAFrame{}
}

// TopSSA returns the most recently pushed frame. The trusted runtime reads
// it from its entry point to learn the true fault details. ok is false when
// no exception is pending in the SSA.
func (t *TCS) TopSSA() (SSAFrame, bool) {
	if t.cssa == 0 {
		return SSAFrame{}, false
	}
	return t.ssa[t.cssa-1], true
}
