package sgx

import (
	"crypto/cipher"
	"fmt"
	"sync/atomic"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// cpuBootCounter issues platform-boot tags (see CPU.instanceSalt).
var cpuBootCounter atomic.Uint64

// OSHandler is the untrusted operating system's fault-handling interface.
// After an AEX the CPU invokes HandlePageFault with the (possibly masked)
// fault. The handler must get the enclave running again — for a legacy
// enclave by fixing the mapping and calling ERESUME; for a self-paging
// enclave by EEnter-ing the trusted handler first — or return an error.
//
// An adversarial OS implements this interface too: the controlled-channel
// attacks in internal/attack are OSHandlers.
type OSHandler interface {
	HandlePageFault(c *CPU, e *Enclave, tcs *TCS, f *mmu.Fault) error

	// HandleTimer is invoked when the preemption timer expires while in
	// enclave mode (after the AEX). Timer AEXs do not set the Autarky
	// pending-exception flag — only page faults do (§5.1.3) — so the OS
	// resumes with ERESUME. A/D-bit scanning adversaries do their probing
	// here, exactly as the real attacks piggyback on timer interrupts.
	HandleTimer(c *CPU, e *Enclave, tcs *TCS) error
}

// CPU is the single logical hart of the simulated machine. It owns the TLB,
// consults the OS-controlled page table on misses, applies the SGX and
// Autarky checks, and orchestrates enclave transitions.
type CPU struct {
	Clock *sim.Clock
	Costs *sim.Costs
	TLB   *mmu.TLB
	PT    *mmu.PageTable
	EPC   *EPC
	Reg   *RegularMemory
	OS    OSHandler

	// AccessObserver, when set, sees every architecturally completed
	// enclave access (ground truth for validating attack recovery).
	AccessObserver func(va mmu.VAddr, t mmu.AccessType)

	m *metrics.Metrics

	rootSecret    []byte
	nextEnclaveID uint64
	enclaves      map[uint64]*Enclave
	// instanceSalt tags quotes from this platform boot so enclave
	// instances are distinguishable across machines/reboots (§3 restart
	// detection).
	instanceSalt uint64

	// Sealed-state envelope state (see envelope.go): one cached AEAD per
	// use keeps sealing allocation-free, sealSeq numbers envelopes of both
	// uses for nonce uniqueness, and sealAAD is the reused additional-data
	// scratch.
	sealAEAD [numSealUses]cipher.AEAD
	sealSeq  uint64
	sealAAD  []byte

	cur    *Enclave
	curTCS *TCS

	// TimerInterval, when non-zero, raises a preemption-timer AEX every
	// TimerInterval enclave accesses (a deterministic stand-in for the
	// APIC timer adversaries program for single-stepping/scanning).
	TimerInterval uint64
	timerCount    uint64

	// PreemptAt, when non-zero, raises a preemption-timer AEX on the first
	// enclave access at or past that cycle count — the scheduler's quantum
	// timer. It is one-shot: the deadline is cleared when it fires, and the
	// scheduler arms a fresh one on every dispatch.
	PreemptAt uint64

	enterDepth int

	// xlateFault is the fault the last failed SGX check in translate
	// returned; osFault is the fault the OS fault handler is looking at (see
	// handOSFault). Keeping them here lets a fault travel without being
	// allocated.
	xlateFault mmu.Fault
	osFault    mmu.Fault
}

// ExecContext is the per-execution-stream CPU state a scheduler must save
// and restore across a context switch: the EENTER nesting depth of the
// stream's call stack and the clock's ambient attribution category at the
// moment the stream was parked. A zero ExecContext is the state of a fresh
// stream (top-level entry, compute attribution).
type ExecContext struct {
	enterDepth int
	cat        sim.Category
}

// Category is the ambient attribution category the stream was parked in.
func (x ExecContext) Category() sim.Category { return x.cat }

// SwapContext installs ctx as the CPU's execution context and returns the
// context that was live. Schedulers call it in matched pairs around a
// context switch; it must only be used outside enclave mode (after the AEX
// has exited the preempted enclave).
func (c *CPU) SwapContext(ctx ExecContext) ExecContext {
	if c.cur != nil {
		panic("sgx: SwapContext while in enclave mode")
	}
	prev := ExecContext{enterDepth: c.enterDepth, cat: c.Clock.Category()}
	c.enterDepth = ctx.enterDepth
	c.Clock.SetCategory(ctx.cat)
	return prev
}

// maxFaultRetries bounds the retry loop of a single access; exceeding it
// indicates a livelock bug in OS/runtime wiring, not an architectural
// condition.
const maxFaultRetries = 1 << 20

// NewCPU wires a CPU. rootSecret seeds per-enclave sealing keys (the
// hardware fuse key in real SGX).
func NewCPU(clock *sim.Clock, costs *sim.Costs, tlb *mmu.TLB, pt *mmu.PageTable, epc *EPC, reg *RegularMemory, rootSecret []byte) *CPU {
	secret := make([]byte, len(rootSecret))
	copy(secret, rootSecret)
	return &CPU{
		instanceSalt: cpuBootCounter.Add(1),
		Clock:        clock,
		Costs:        costs,
		TLB:          tlb,
		PT:           pt,
		EPC:          epc,
		Reg:          reg,
		m:            metrics.Of(clock),
		rootSecret:   secret,
		enclaves:     make(map[uint64]*Enclave),
	}
}

// InEnclave reports whether the CPU is executing in enclave mode, and which
// enclave.
func (c *CPU) InEnclave() (*Enclave, bool) { return c.cur, c.cur != nil }

// CurrentTCS returns the TCS of the executing enclave thread.
func (c *CPU) CurrentTCS() *TCS { return c.curTCS }

// Enclave returns a created enclave by ID.
func (c *CPU) Enclave(id uint64) *Enclave { return c.enclaves[id] }

func (c *CPU) setMode(e *Enclave, tcs *TCS) {
	c.cur = e
	c.curTCS = tcs
}

func (c *CPU) clearMode() {
	c.cur = nil
	c.curTCS = nil
}

// terminationUnwind carries a TerminationError up the simulated call stack
// to the outermost EEnter, which converts it back into an error return.
type terminationUnwind struct{ err *TerminationError }

// Terminate lets the trusted runtime kill its own enclave (attack detected,
// rate limit exceeded, integrity violation). It must be called in enclave
// mode; it unwinds the simulated enclave execution.
func (c *CPU) Terminate(reason TerminationReason, detail string) {
	c.TerminateCause(reason, detail, nil)
}

// TerminateCause is Terminate with the concrete triggering error attached,
// so the TerminationError the outermost EEnter returns (and every later
// entry attempt re-returns) unwraps to the real cause chain.
func (c *CPU) TerminateCause(reason TerminationReason, detail string, cause error) {
	e, ok := c.InEnclave()
	if !ok {
		panic("sgx: Terminate outside enclave mode")
	}
	e.terminateCause(reason, detail, cause)
	panic(terminationUnwind{e.terminationError()})
}

// EEnter enters the enclave through its attested entry point and runs the
// trusted runtime's dispatcher. It returns after the matching EEXIT, or —
// for Autarky's optimized handlers — after an in-enclave resume, in which
// case the CPU is still in enclave mode and the caller must not ERESUME.
//
// If the trusted runtime terminates the enclave during this entry (or any
// nested entry), the outermost EEnter returns the *TerminationError.
func (c *CPU) EEnter(e *Enclave, tcs *TCS) (err error) {
	if c.cur != nil {
		return fmt.Errorf("%w: EENTER while in enclave mode", ErrOutsideEnclave)
	}
	if e.dead {
		return e.terminationError()
	}
	if !e.initialized {
		return ErrNotInitialized
	}
	// Transition cost inherits the ambient category: fault-handling when
	// the OS re-enters the trusted handler, compute at top-level entry.
	c.Clock.ChargeAmbient(c.Costs.EENTER)
	c.TLB.FlushAll(1)
	c.m.Inc(metrics.CntEnters)
	// Autarky §5.1.3: EENTER clears the pending-exception flag.
	tcs.pendingException = false
	c.setMode(e, tcs)

	depth := c.enterDepth
	c.enterDepth++
	if depth == 0 {
		defer func() {
			if r := recover(); r != nil {
				tu, ok := r.(terminationUnwind)
				if !ok {
					panic(r)
				}
				c.enterDepth = 0
				c.clearMode()
				err = tu.err
			}
		}()
	}

	e.Runtime.OnEntry(tcs)
	c.enterDepth--

	if tcs.inEnclaveResumed {
		// Handler restored the faulting context itself; stay in enclave
		// mode, no EEXIT.
		tcs.inEnclaveResumed = false
		return nil
	}
	c.Clock.ChargeAmbient(c.Costs.EEXIT)
	c.TLB.FlushAll(1)
	c.m.Inc(metrics.CntExits)
	c.clearMode()
	return nil
}

// ERESUME restores the context saved by the last AEX. Under Autarky it
// fails with ErrPendingException if the enclave has not been re-entered
// since the fault — the core of the defense: the OS cannot silently resume.
func (c *CPU) ERESUME(e *Enclave, tcs *TCS) error {
	if c.cur != nil {
		return fmt.Errorf("%w: ERESUME while in enclave mode", ErrOutsideEnclave)
	}
	if e.dead {
		return e.terminationError()
	}
	if tcs.pendingException {
		c.m.Inc(metrics.CntResumeDenied)
		return ErrPendingException
	}
	if tcs.cssa == 0 {
		return fmt.Errorf("%w: ERESUME with empty SSA stack", ErrEPCMConflict)
	}
	c.AccountResume(1)
	tcs.popSSA()
	c.setMode(e, tcs)
	return nil
}

// AccountResume charges and counts everything n successful ERESUMEs cost, in
// the ambient category, without entering enclave mode. ERESUME calls it for
// one; so does a scheduler that runs a parked stream's next slices in place
// because it knows each ends in another interrupt AEX (see
// AccountInterruptAEX). The interrupt frame an ERESUME would pop stays on
// the SSA stack: the AEX would push an identical one. Outside ERESUME, call
// it only when CanResume holds, and for n > 1 only with the fault path
// ambient: each AEX in between leaves it so, and every ERESUME after the
// first is charged there.
func (c *CPU) AccountResume(n uint64) {
	c.Clock.ChargeAmbient(n * c.Costs.ERESUME)
	c.TLB.FlushAll(n)
	c.m.Add(metrics.CntResumes, n)
}

// chargeAEX is everything n AEXs cost and count, in the ambient category.
func (c *CPU) chargeAEX(n uint64) {
	c.Clock.ChargeAmbient(n * c.Costs.AEX)
	c.TLB.FlushAll(n)
	c.m.Add(metrics.CntAEXs, n)
}

// CanResume reports whether ERESUME of e on tcs would succeed now.
func (c *CPU) CanResume(e *Enclave, tcs *TCS) bool {
	return c.cur == nil && !e.dead && !tcs.pendingException && tcs.cssa > 0
}

// ResumeCycles is what a successful ERESUME charges.
func (c *CPU) ResumeCycles() uint64 { return c.Costs.ERESUME + c.TLB.FlushCycles() }

// AEXCycles is what an AEX charges.
func (c *CPU) AEXCycles() uint64 { return c.Costs.AEX + c.TLB.FlushCycles() }

// AccountInterruptAEX charges and counts the n interrupt AEXs that park the
// stream again after each of AccountResume's ERESUMEs. It opens the
// fault-path category that interruptAEX opens and leaves it ambient, as it
// is for a stream parked inside that AEX.
func (c *CPU) AccountInterruptAEX(n uint64) {
	c.Clock.SetCategory(sim.CatFault)
	c.chargeAEX(n)
}

// ResumeInEnclave is the runtime-visible half of the in-enclave-resume
// optimization: the fault handler pops its own SSA frame and returns
// straight to the faulting context, skipping the EEXIT/ERESUME round trip.
// Only permitted for enclaves attested with AttrInEnclaveResume or
// AttrElideAEX.
func (c *CPU) ResumeInEnclave() {
	e, ok := c.InEnclave()
	if !ok {
		panic("sgx: ResumeInEnclave outside enclave mode")
	}
	if !e.Attrs.Has(AttrInEnclaveResume) && !e.Attrs.Has(AttrElideAEX) {
		panic("sgx: ResumeInEnclave without the corresponding attribute")
	}
	c.curTCS.popSSA()
	c.curTCS.inEnclaveResumed = true
}

// AsHost runs fn as if on a separate untrusted host hart. It models the
// exitless-call service thread (paper §6): the enclave thread stays
// logically inside while the host thread executes privileged work. The
// caller charges the exitless-call round-trip cost.
func (c *CPU) AsHost(fn func() error) error {
	savedE, savedTCS := c.cur, c.curTCS
	c.clearMode()
	defer c.setMode(savedE, savedTCS)
	return fn()
}

// ReadEnclavePageInto copies the contents of one of the current enclave's
// own resident pages into dst, a caller-provided buffer of at least PageSize
// bytes, so eviction loops snapshot many pages through one reused buffer.
// Only trusted in-enclave code may use it (the SGXv2 software-eviction path
// reads the page before sealing it); it bypasses the TLB because the
// runtime's accesses to its own pinned structures are charged as flat
// handler overhead.
func (c *CPU) ReadEnclavePageInto(dst []byte, va mmu.VAddr, pfn mmu.PFN) error {
	e, ok := c.InEnclave()
	if !ok {
		return fmt.Errorf("%w: ReadEnclavePageInto outside enclave mode", ErrOutsideEnclave)
	}
	if _, err := c.epcmFor(e, va.PageBase(), pfn); err != nil {
		return err
	}
	if len(dst) < mmu.PageSize {
		return fmt.Errorf("sgx: ReadEnclavePageInto buffer %d bytes, want %d", len(dst), mmu.PageSize)
	}
	copy(dst[:mmu.PageSize], c.EPC.Data(pfn))
	return nil
}

// translate resolves va for access type t, applying TLB, page-table walk,
// SGX EPCM checks and Autarky's A/D rule. On success the translation is in
// the TLB and the frame is returned. A fault lives in the CPU or the page
// table and is valid until the next translate.
func (c *CPU) translate(va mmu.VAddr, t mmu.AccessType) (mmu.PFN, *mmu.Fault) {
	if entry, ok := c.TLB.Lookup(va, t); ok {
		return entry.PFN(), nil
	}
	wr, fault := c.PT.Walk(va, t)
	if fault != nil {
		return mmu.NoPFN, fault
	}
	pte := wr.PTE

	if c.cur != nil && c.cur.Contains(va) {
		// Enclave-region access: the SGX-specific checks (paper §2.1
		// "Access control and page faults").
		if !pte.EPC || !c.EPC.Contains(pte.PFN) {
			return mmu.NoPFN, c.sgxFault(mmu.Fault{Addr: va, Type: t, SGX: true, NotPresent: true})
		}
		ent := c.EPC.Entry(pte.PFN).EPCM
		switch {
		case !ent.Valid,
			ent.EnclaveID != c.cur.ID,
			ent.LinAddr != va.PageBase(),
			ent.Type != PTReg,
			ent.Blocked,
			ent.Pending,
			ent.Modified:
			return mmu.NoPFN, c.sgxFault(mmu.Fault{Addr: va, Type: t, SGX: true, NotPresent: true})
		}
		if !ent.Perms.Allows(t) {
			return mmu.NoPFN, c.sgxFault(mmu.Fault{Addr: va, Type: t, SGX: true, Protection: true})
		}
		if c.cur.SelfPaging() {
			// Autarky §5.1.4: the fetched PTE's A and D bits must already
			// be set; otherwise the PTE is treated as invalid. No A/D
			// writeback ever happens for these entries, which kills the
			// TOCTOU variant.
			c.Clock.ChargeAmbient(c.Costs.ADCheck)
			c.m.Inc(metrics.CntADChecks)
			if !pte.Accessed || !pte.Dirty {
				return mmu.NoPFN, c.sgxFault(mmu.Fault{Addr: va, Type: t, SGX: true, NotPresent: true})
			}
			c.TLB.Fill(va, pte, true)
		} else {
			c.PT.SetAD(va, t == mmu.AccessWrite)
			c.Clock.ChargeAmbient(c.Costs.ADWriteback)
			c.TLB.Fill(va, pte, pte.Dirty || t == mmu.AccessWrite)
		}
		return pte.PFN, nil
	}

	// Non-enclave-region access (host memory, or enclave touching untrusted
	// buffers). EPC frames are inaccessible outside the owning enclave's
	// ELRANGE: real hardware reads abort-page values; the model faults to
	// keep errors loud.
	if pte.EPC {
		return mmu.NoPFN, c.sgxFault(mmu.Fault{Addr: va, Type: t, SGX: true, Protection: true})
	}
	c.PT.SetAD(va, t == mmu.AccessWrite)
	c.Clock.ChargeAmbient(c.Costs.ADWriteback)
	c.TLB.Fill(va, pte, pte.Dirty || t == mmu.AccessWrite)
	return pte.PFN, nil
}

// deliverFault runs the architectural fault flow for a fault raised in the
// current mode, returning once the machine is ready to retry the access.
// Everything charged within the flow — transitions, OS fault path, handler
// upcalls, forced re-entries — is attributed to fault-handling unless a
// nested component (paging, crypto, policy work) overrides explicitly.
func (c *CPU) deliverFault(f *mmu.Fault) error {
	defer c.Clock.SetCategory(c.Clock.SetCategory(sim.CatFault))
	c.m.Inc(faultCause(c.cur, f))
	if c.cur == nil {
		// Host-mode fault: straight to the OS, unmasked (offset included,
		// as for any normal process fault).
		c.Clock.ChargeAmbient(c.Costs.OSFaultEntry)
		return c.handOSFault(nil, nil, *f)
	}

	e, tcs := c.cur, c.curTCS
	if !e.Contains(f.Addr) {
		// Fault on untrusted memory while in enclave mode: ordinary AEX,
		// address visible (it is not enclave state), no pending flag.
		return c.aexAndHandle(e, tcs, *f, *f, false)
	}

	// Enclave-region fault. Architectural masking:
	masked := *f
	masked.Addr = f.Addr.PageBase() // SGX always zeroes the page offset
	if e.SelfPaging() {
		// Autarky §5.1.2: hide the entire address and the access type;
		// report a read fault at the enclave base.
		masked.Addr = e.Base
		masked.Type = mmu.AccessRead
		masked.NotPresent = true
		masked.Protection = false
	}

	if e.SelfPaging() && e.Attrs.Has(AttrElideAEX) {
		// §5.1.3 "Eliding AEX": stay in enclave mode; simulate a nested
		// re-entry at the handler.
		c.m.Inc(metrics.CntElidedFaults)
		if err := tcs.pushSSA(*f); err != nil {
			c.Terminate(TerminatePolicy, "SSA exhausted on elided fault")
		}
		c.Clock.ChargeAmbient(c.Costs.UpcallDeliver)
		e.Runtime.OnEntry(tcs)
		// The handler must have resumed in-enclave (there is no other exit
		// from an elided fault).
		if !tcs.inEnclaveResumed {
			panic("sgx: elided fault handler did not resume in-enclave")
		}
		tcs.inEnclaveResumed = false
		return nil
	}

	return c.aexAndHandle(e, tcs, *f, masked, true)
}

// aexAndHandle performs the AEX and hands the masked fault to the OS.
// enclaveRegion tells whether the fault was inside ELRANGE (only those set
// the pending-exception flag under Autarky).
func (c *CPU) aexAndHandle(e *Enclave, tcs *TCS, full, masked mmu.Fault, enclaveRegion bool) error {
	if err := tcs.pushSSA(full); err != nil {
		// The enclave thread can never run again; surface as termination.
		e.terminate(TerminatePolicy, "SSA stack exhausted")
		c.clearMode()
		return &TerminationError{Reason: TerminatePolicy, Detail: "SSA stack exhausted"}
	}
	if e.SelfPaging() && enclaveRegion {
		// Autarky §5.1.3: AEX on an enclave page fault sets the pending flag.
		tcs.pendingException = true
	}
	c.chargeAEX(1)
	c.clearMode()

	c.Clock.ChargeAmbient(c.Costs.OSFaultEntry)
	if err := c.handOSFault(e, tcs, masked); err != nil {
		return err
	}
	if c.cur != e {
		return fmt.Errorf("sgx: OS fault handler returned without resuming enclave %d", e.ID)
	}
	return nil
}

// handOSFault calls the OS fault handler with f held in c.osFault, so the
// fault the OS sees does not escape to the heap. Faults nested inside the
// handler (the trusted handler's own paging, say) borrow the field and put
// the outer fault back before the outer handler reads it again.
func (c *CPU) handOSFault(e *Enclave, tcs *TCS, f mmu.Fault) error {
	outer := c.osFault
	c.osFault = f
	err := c.OS.HandlePageFault(c, e, tcs, &c.osFault)
	c.osFault = outer
	return err
}

// sgxFault parks an SGX-check fault in c.xlateFault and returns it.
func (c *CPU) sgxFault(f mmu.Fault) *mmu.Fault {
	c.xlateFault = f
	return &c.xlateFault
}

// faultCause classifies a delivered fault into exactly one cause counter:
// host-mode faults, SGX/EPCM-check faults, permission faults, and plain
// not-present faults. The four counters partition total fault deliveries.
func faultCause(cur *Enclave, f *mmu.Fault) metrics.Counter {
	switch {
	case cur == nil:
		return metrics.CntFaultHost
	case f.SGX:
		return metrics.CntFaultSGX
	case f.Protection:
		return metrics.CntFaultProtection
	default:
		return metrics.CntFaultNotPresent
	}
}

// maybeTimer raises a preemption-timer AEX when the access-count interval
// elapses or the cycle deadline (PreemptAt) passes, whichever fires first.
func (c *CPU) maybeTimer() error {
	if c.cur == nil {
		return nil
	}
	fire := false
	if c.TimerInterval != 0 {
		c.timerCount++
		if c.timerCount >= c.TimerInterval {
			c.timerCount = 0
			fire = true
		}
	}
	if c.PreemptAt != 0 && c.Clock.Cycles() >= c.PreemptAt {
		c.PreemptAt = 0
		fire = true
	}
	if !fire {
		return nil
	}
	return c.interruptAEX()
}

// VoluntaryAEX performs a cooperative asynchronous exit: the enclave's
// execution stream is parked exactly as a preemption-timer AEX would park
// it — interrupt SSA frame, AEX charge, TLB flush, OS timer upcall — and
// resumes via ERESUME when the OS hands the CPU back. Server dispatch loops
// use it to donate the rest of their slice when their queues are empty.
// Outside enclave mode it is a no-op.
func (c *CPU) VoluntaryAEX() error {
	if c.cur == nil {
		return nil
	}
	return c.interruptAEX()
}

// interruptAEX is the shared interrupt exit: push an interrupt frame (no
// exception info), exit enclave mode, upcall the OS timer handler, and
// expect it to ERESUME.
func (c *CPU) interruptAEX() error {
	// The whole preemption — AEX, OS timer work, resume — is fault-path
	// overhead for attribution purposes.
	defer c.Clock.SetCategory(c.Clock.SetCategory(sim.CatFault))
	e, tcs := c.cur, c.curTCS
	if err := tcs.pushFrame(SSAFrame{}); err != nil {
		e.terminate(TerminatePolicy, "SSA stack exhausted on timer")
		c.clearMode()
		return &TerminationError{Reason: TerminatePolicy, Detail: "SSA stack exhausted on timer"}
	}
	c.chargeAEX(1)
	c.clearMode()
	if err := c.OS.HandleTimer(c, e, tcs); err != nil {
		return err
	}
	if c.cur != e {
		return fmt.Errorf("sgx: OS timer handler returned without resuming enclave %d", e.ID)
	}
	return nil
}

// Touch performs one enclave (or host) memory access of type t at va,
// running the full fault flow as needed. It is the primitive every workload
// access compiles to.
func (c *CPU) Touch(va mmu.VAddr, t mmu.AccessType) error {
	if err := c.maybeTimer(); err != nil {
		return err
	}
	for retry := 0; ; retry++ {
		if retry > maxFaultRetries {
			return fmt.Errorf("sgx: access to %s livelocked after %d faults", va, retry)
		}
		_, fault := c.translate(va, t)
		if fault == nil {
			c.Clock.ChargeAmbient(c.Costs.MemAccess)
			if c.AccessObserver != nil {
				c.AccessObserver(va, t)
			}
			return nil
		}
		if err := c.deliverFault(fault); err != nil {
			return err
		}
	}
}

// access translates va (faulting as needed) and returns the backing bytes
// for the in-page range starting at va.
func (c *CPU) access(va mmu.VAddr, t mmu.AccessType) ([]byte, error) {
	if err := c.maybeTimer(); err != nil {
		return nil, err
	}
	for retry := 0; ; retry++ {
		if retry > maxFaultRetries {
			return nil, fmt.Errorf("sgx: access to %s livelocked after %d faults", va, retry)
		}
		pfn, fault := c.translate(va, t)
		if fault == nil {
			c.Clock.ChargeAmbient(c.Costs.MemAccess)
			if c.AccessObserver != nil {
				c.AccessObserver(va, t)
			}
			var frame []byte
			switch {
			case c.EPC.Contains(pfn):
				frame = c.EPC.Data(pfn)
			case c.Reg.Contains(pfn):
				frame = c.Reg.Data(pfn)
			default:
				return nil, fmt.Errorf("sgx: PFN %d not backed by any memory", pfn)
			}
			return frame[va.Offset():], nil
		}
		if err := c.deliverFault(fault); err != nil {
			return nil, err
		}
	}
}

// Read copies len(buf) bytes from virtual memory at va into buf, faulting
// page by page.
func (c *CPU) Read(va mmu.VAddr, buf []byte) error {
	for len(buf) > 0 {
		src, err := c.access(va, mmu.AccessRead)
		if err != nil {
			return err
		}
		n := copy(buf, src)
		buf = buf[n:]
		va += mmu.VAddr(n)
	}
	return nil
}

// Write copies buf into virtual memory at va, faulting page by page.
func (c *CPU) Write(va mmu.VAddr, buf []byte) error {
	for len(buf) > 0 {
		dst, err := c.access(va, mmu.AccessWrite)
		if err != nil {
			return err
		}
		n := copy(dst, buf)
		buf = buf[n:]
		va += mmu.VAddr(n)
	}
	return nil
}
