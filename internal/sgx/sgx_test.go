package sgx

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// testRig wires a CPU with a scriptable OS handler and a scriptable
// enclave runtime.
type testRig struct {
	clock *sim.Clock
	costs sim.Costs
	pt    *mmu.PageTable
	tlb   *mmu.TLB
	epc   *EPC
	reg   *RegularMemory
	cpu   *CPU
	store *pagestore.Store
	// paging is the backend evictOne hands EWB: store, unless a test
	// swaps in its own.
	paging pagestore.PagingBackend

	onFault func(c *CPU, e *Enclave, tcs *TCS, f *mmu.Fault) error
	onEntry func(tcs *TCS)
}

func (r *testRig) HandlePageFault(c *CPU, e *Enclave, tcs *TCS, f *mmu.Fault) error {
	if r.onFault != nil {
		return r.onFault(c, e, tcs, f)
	}
	return errors.New("unexpected fault")
}

func (r *testRig) HandleTimer(c *CPU, e *Enclave, tcs *TCS) error {
	return c.ERESUME(e, tcs)
}

type rigRuntime struct{ r *testRig }

func (rt rigRuntime) OnEntry(tcs *TCS) {
	if rt.r.onEntry != nil {
		rt.r.onEntry(tcs)
	}
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	r := &testRig{clock: sim.NewClock(), costs: sim.DefaultCosts()}
	r.pt = mmu.NewPageTable(r.clock, &r.costs)
	r.tlb = mmu.NewTLB(16, 4, r.clock, &r.costs)
	r.epc = NewEPC(0x1000, 256)
	r.reg = NewRegularMemory(1 << 30)
	r.cpu = NewCPU(r.clock, &r.costs, r.tlb, r.pt, r.epc, r.reg, []byte("rig"))
	r.cpu.OS = r
	r.store = pagestore.NewStore()
	r.paging = r.store
	return r
}

const rigBase = mmu.VAddr(0x10_0000)

// buildEnclave makes an enclave with n RW data pages mapped, one TCS, EINITed.
func (r *testRig) buildEnclave(t *testing.T, attrs Attributes, n int) (*Enclave, *TCS) {
	t.Helper()
	e, err := r.cpu.ECREATE(rigBase, uint64(n)*mmu.PageSize, attrs)
	if err != nil {
		t.Fatal(err)
	}
	e.Runtime = rigRuntime{r}
	selfPaging := attrs.Has(AttrSelfPaging)
	for i := 0; i < n; i++ {
		va := rigBase + mmu.VAddr(i*mmu.PageSize)
		pfn, err := r.cpu.EADD(e, va, []byte{byte(i)}, mmu.PermRW, PTReg)
		if err != nil {
			t.Fatal(err)
		}
		if selfPaging {
			r.pt.MapAD(va, pfn, mmu.PermRW, true, true, true)
		} else {
			r.pt.Map(va, pfn, mmu.PermRW, true)
		}
	}
	tcs, err := r.cpu.AddTCS(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cpu.EINIT(e); err != nil {
		t.Fatal(err)
	}
	return e, tcs
}

// --- EPC -------------------------------------------------------------------

func TestEPCAllocFree(t *testing.T) {
	epc := NewEPC(0x100, 4)
	if epc.FreeFrames() != 4 {
		t.Fatalf("FreeFrames = %d", epc.FreeFrames())
	}
	pfns := make([]mmu.PFN, 0, 4)
	for i := 0; i < 4; i++ {
		pfn, err := epc.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if !epc.Contains(pfn) {
			t.Fatalf("allocated PFN %d outside EPC", pfn)
		}
		pfns = append(pfns, pfn)
	}
	if _, err := epc.Alloc(); !errors.Is(err, ErrEPCFull) {
		t.Fatalf("expected ErrEPCFull, got %v", err)
	}
	epc.Free(pfns[0])
	if epc.FreeFrames() != 1 {
		t.Fatal("free did not return frame")
	}
}

func TestEPCAllocZeroesReusedFrames(t *testing.T) {
	epc := NewEPC(0x100, 1)
	pfn, _ := epc.Alloc()
	epc.Data(pfn)[0] = 0xff
	epc.Free(pfn)
	pfn2, _ := epc.Alloc()
	if epc.Data(pfn2)[0] != 0 {
		t.Fatal("reused frame not zeroed")
	}
}

func TestEPCContains(t *testing.T) {
	epc := NewEPC(0x100, 4)
	if epc.Contains(0xff) || epc.Contains(0x104) {
		t.Fatal("Contains out of range")
	}
	if !epc.Contains(0x100) || !epc.Contains(0x103) {
		t.Fatal("Contains in range")
	}
}

// --- Enclave lifecycle -------------------------------------------------------

func TestECREATEValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.cpu.ECREATE(0x1001, mmu.PageSize, 0); err == nil {
		t.Fatal("unaligned base accepted")
	}
	if _, err := r.cpu.ECREATE(0x1000, 100, 0); err == nil {
		t.Fatal("unaligned size accepted")
	}
	// At the top of the address space, an ELRANGE whose end wraps (to 0 or
	// past it) is refused before it takes an enclave ID; one ending a page
	// below the top is not.
	top := mmu.VAddr(0xffff_ffff_ffff_f000) // the last page
	for _, size := range []uint64{mmu.PageSize, 1 << 40} {
		if _, err := r.cpu.ECREATE(top, size, 0); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("ELRANGE of %d bytes at %s: %v, want ErrBadAddress", size, top, err)
		}
	}
	if r.cpu.nextEnclaveID != 0 {
		t.Fatalf("refused ECREATEs took %d enclave IDs", r.cpu.nextEnclaveID)
	}
	below := top - mmu.PageSize
	if e, err := r.cpu.ECREATE(below, mmu.PageSize, 0); err != nil || !e.Contains(below) || e.Contains(top) {
		t.Fatalf("ELRANGE of the page below the top: %v", err)
	}
}

func TestMeasurementDeterministicAndSensitive(t *testing.T) {
	build := func(attrs Attributes, content byte) [32]byte {
		r := newRig(t)
		e, _ := r.cpu.ECREATE(rigBase, mmu.PageSize, attrs)
		e.Runtime = rigRuntime{r}
		if _, err := r.cpu.EADD(e, rigBase, []byte{content}, mmu.PermRW, PTReg); err != nil {
			t.Fatal(err)
		}
		if _, err := r.cpu.AddTCS(e, 2); err != nil {
			t.Fatal(err)
		}
		if err := r.cpu.EINIT(e); err != nil {
			t.Fatal(err)
		}
		return e.Measurement()
	}
	m1 := build(AttrSelfPaging, 1)
	m2 := build(AttrSelfPaging, 1)
	if m1 != m2 {
		t.Fatal("identical builds measured differently")
	}
	if m1 == build(0, 1) {
		t.Fatal("attribute change did not change measurement (self-paging must be attestable)")
	}
	if m1 == build(AttrSelfPaging, 2) {
		t.Fatal("content change did not change measurement")
	}
}

func TestEADDAfterEINITRejected(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclave(t, 0, 1)
	if _, err := r.cpu.EADD(e, rigBase, nil, mmu.PermRW, PTReg); err == nil {
		t.Fatal("EADD after EINIT accepted")
	}
	if _, err := r.cpu.AddTCS(e, 1); err == nil {
		t.Fatal("AddTCS after EINIT accepted")
	}
}

func TestEINITRequiresRuntime(t *testing.T) {
	r := newRig(t)
	e, _ := r.cpu.ECREATE(rigBase, mmu.PageSize, 0)
	if err := r.cpu.EINIT(e); err == nil {
		t.Fatal("EINIT without runtime accepted")
	}
}

func TestEENTERRequiresInit(t *testing.T) {
	r := newRig(t)
	e, _ := r.cpu.ECREATE(rigBase, mmu.PageSize, 0)
	e.Runtime = rigRuntime{r}
	tcs := NewTCS(1, 2)
	if err := r.cpu.EEnter(e, tcs); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("EENTER before EINIT: %v", err)
	}
}

// --- Enclave execution & access checks --------------------------------------

func TestEnclaveAccessInsideRegion(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, 0, 2)
	var err error
	r.onEntry = func(*TCS) {
		err = r.cpu.Touch(rigBase, mmu.AccessRead)
	}
	if e2 := r.cpu.EEnter(e, tcs); e2 != nil {
		t.Fatal(e2)
	}
	if err != nil {
		t.Fatalf("access failed: %v", err)
	}
}

func TestEPCInaccessibleOutsideEnclaveMode(t *testing.T) {
	r := newRig(t)
	r.buildEnclave(t, 0, 1)
	// Host-mode access to the enclave's mapped page must fault (abort page
	// semantics, modelled as a fault).
	called := false
	r.onFault = func(c *CPU, e *Enclave, tcs *TCS, f *mmu.Fault) error {
		called = true
		return errors.New("host touched EPC")
	}
	if err := r.cpu.Touch(rigBase, mmu.AccessRead); err == nil {
		t.Fatal("host access to EPC succeeded")
	}
	if !called {
		t.Fatal("no fault delivered")
	}
}

func TestEPCMWrongLinearAddressFaults(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, 0, 2)
	// OS remaps page 0's VA to page 1's frame: EPCM linear-address check
	// must fault (the "map the wrong page" attack variant).
	pte1, _ := r.pt.Get(rigBase + mmu.PageSize)
	r.pt.Map(rigBase, pte1.PFN, mmu.PermRW, true)
	r.tlb.FlushAll(1)
	var accessErr error
	faulted := false
	r.onFault = func(c *CPU, e *Enclave, tcs *TCS, f *mmu.Fault) error {
		faulted = true
		return errors.New("stop")
	}
	r.onEntry = func(*TCS) {
		accessErr = r.cpu.Touch(rigBase, mmu.AccessRead)
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if !faulted || accessErr == nil {
		t.Fatal("EPCM mismatch not detected")
	}
}

func TestLegacySilentResumeAfterFault(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, 0, 2)
	target := rigBase + mmu.PageSize
	var observed []mmu.VAddr
	r.onFault = func(c *CPU, e *Enclave, tcs *TCS, f *mmu.Fault) error {
		observed = append(observed, f.Addr)
		r.pt.SetPresent(target, true)
		return c.ERESUME(e, tcs)
	}
	var accessErr error
	r.onEntry = func(*TCS) {
		r.pt.SetPresent(target, false)
		r.tlb.Invalidate(target)
		accessErr = r.cpu.Touch(target+0x123, mmu.AccessWrite)
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if accessErr != nil {
		t.Fatalf("access after silent resume failed: %v", accessErr)
	}
	if len(observed) != 1 {
		t.Fatalf("observed %d faults", len(observed))
	}
	// Legacy SGX zeroes only the page offset.
	if observed[0] != target {
		t.Fatalf("OS saw %s, want page-aligned %s", observed[0], target)
	}
}

func TestSelfPagingMasksAddressAndType(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging, 2)
	target := rigBase + mmu.PageSize
	var got *mmu.Fault
	r.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		cp := *f
		got = &cp
		r.pt.SetPresent(target, true)
		if err := c.EEnter(e2, tcs2); err != nil {
			return err
		}
		return c.ERESUME(e2, tcs2)
	}
	entered := 0
	r.onEntry = func(tcs2 *TCS) {
		entered++
		if entered > 1 {
			return // fault-handler entry: nothing to do, PTE already fixed
		}
		r.pt.SetPresent(target, false)
		r.tlb.Invalidate(target)
		if err := r.cpu.Touch(target+0x42, mmu.AccessWrite); err != nil {
			t.Errorf("access: %v", err)
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no fault observed")
	}
	if got.Addr != e.Base {
		t.Fatalf("OS saw %s, want enclave base %s", got.Addr, e.Base)
	}
	if got.Type != mmu.AccessRead {
		t.Fatalf("OS saw access type %s, want masked read", got.Type)
	}
}

func TestPendingExceptionBlocksERESUME(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging, 2)
	target := rigBase + mmu.PageSize
	var resumeErr error
	r.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		r.pt.SetPresent(target, true)
		// The malicious silent resume: must be denied.
		resumeErr = c.ERESUME(e2, tcs2)
		if !errors.Is(resumeErr, ErrPendingException) {
			return errors.New("silent resume was not blocked")
		}
		// Forced re-entry clears the flag; then resume works.
		if err := c.EEnter(e2, tcs2); err != nil {
			return err
		}
		return c.ERESUME(e2, tcs2)
	}
	entered := 0
	r.onEntry = func(*TCS) {
		entered++
		if entered > 1 {
			return
		}
		r.pt.SetPresent(target, false)
		r.tlb.Invalidate(target)
		if err := r.cpu.Touch(target, mmu.AccessRead); err != nil {
			t.Errorf("access: %v", err)
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resumeErr, ErrPendingException) {
		t.Fatalf("silent ERESUME returned %v, want ErrPendingException", resumeErr)
	}
	if got := metrics.Of(r.clock).Count(metrics.CntResumeDenied); got != 1 {
		t.Fatalf("ResumeDenied = %d", got)
	}
}

func TestADBitRuleFaultsOnClearedBits(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging, 2)
	target := rigBase + mmu.PageSize
	faults := 0
	r.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		faults++
		// Restore the A bit and resume properly.
		r.pt.SetAD(target, true)
		if err := c.EEnter(e2, tcs2); err != nil {
			return err
		}
		return c.ERESUME(e2, tcs2)
	}
	entered := 0
	r.onEntry = func(*TCS) {
		entered++
		if entered > 1 {
			return
		}
		// First access fine; then the OS clears the A bit (the silent
		// attack); the next access must fault under the A/D rule.
		if err := r.cpu.Touch(target, mmu.AccessRead); err != nil {
			t.Errorf("first access: %v", err)
		}
		r.pt.ClearAccessed(target)
		r.tlb.Invalidate(target)
		if err := r.cpu.Touch(target, mmu.AccessRead); err != nil {
			t.Errorf("second access: %v", err)
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d, want exactly 1 (from the cleared A bit)", faults)
	}
}

func TestLegacyWalkSetsADBits(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, 0, 1)
	r.onEntry = func(*TCS) {
		if err := r.cpu.Touch(rigBase, mmu.AccessWrite); err != nil {
			t.Errorf("access: %v", err)
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	pte, _ := r.pt.Get(rigBase)
	if !pte.Accessed || !pte.Dirty {
		t.Fatal("legacy enclave walk must set A/D (the side channel exists)")
	}
}

func TestSelfPagingWalkNeverWritesAD(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging, 1)
	// Clear D (keeping A) — access must fault rather than set it back.
	faulted := false
	r.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		faulted = true
		r.pt.SetAD(rigBase, true)
		if err := c.EEnter(e2, tcs2); err != nil {
			return err
		}
		return c.ERESUME(e2, tcs2)
	}
	entered := 0
	r.onEntry = func(*TCS) {
		entered++
		if entered > 1 {
			return
		}
		r.pt.ClearDirty(rigBase)
		r.tlb.Invalidate(rigBase)
		if err := r.cpu.Touch(rigBase, mmu.AccessRead); err != nil {
			t.Errorf("access: %v", err)
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("cleared D bit did not fault under the A/D rule")
	}
}

func TestTerminateUnwindsToOuterEEnter(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging, 2)
	r.onEntry = func(*TCS) {
		r.cpu.Terminate(TerminateAttackDetected, "test kill")
	}
	err := r.cpu.EEnter(e, tcs)
	var term *TerminationError
	if !errors.As(err, &term) || term.Reason != TerminateAttackDetected {
		t.Fatalf("err = %v", err)
	}
	if dead, reason, _ := e.Dead(); !dead || reason != TerminateAttackDetected {
		t.Fatal("enclave not marked dead")
	}
	// Dead enclaves cannot be re-entered or resumed.
	if err := r.cpu.EEnter(e, tcs); err == nil {
		t.Fatal("EENTER of dead enclave succeeded")
	}
	if err := r.cpu.ERESUME(e, tcs); err == nil {
		t.Fatal("ERESUME of dead enclave succeeded")
	}
}

func TestSSAExhaustionKillsEnclave(t *testing.T) {
	r := newRig(t)
	e, err := r.cpu.ECREATE(rigBase, 2*mmu.PageSize, AttrSelfPaging)
	if err != nil {
		t.Fatal(err)
	}
	e.Runtime = rigRuntime{r}
	pfn, _ := r.cpu.EADD(e, rigBase, nil, mmu.PermRW, PTReg)
	r.pt.MapAD(rigBase, pfn, mmu.PermRW, true, true, true)
	tcs, _ := r.cpu.AddTCS(e, 1) // single SSA frame
	if err := r.cpu.EINIT(e); err != nil {
		t.Fatal(err)
	}
	target := rigBase + mmu.PageSize // never mapped -> faults
	r.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		// Re-enter; handler faults again implicitly by touching the missing
		// page, exhausting the SSA.
		if err := c.EEnter(e2, tcs2); err != nil {
			return err
		}
		return c.ERESUME(e2, tcs2)
	}
	depth := 0
	var touchErr error
	r.onEntry = func(*TCS) {
		depth++
		if depth > 3 {
			return
		}
		if err := r.cpu.Touch(target, mmu.AccessRead); err != nil && touchErr == nil {
			touchErr = err
		}
	}
	_ = r.cpu.EEnter(e, tcs)
	var term *TerminationError
	if !errors.As(touchErr, &term) {
		t.Fatalf("expected termination on SSA exhaustion, got %v", touchErr)
	}
	if dead, _, _ := e.Dead(); !dead {
		t.Fatal("enclave not dead after SSA exhaustion")
	}
}

// --- EWB / ELDU ---------------------------------------------------------------

func TestEWBRequiresBlockAndTrack(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclave(t, 0, 1)
	pte, _ := r.pt.Get(rigBase)
	if err := r.cpu.EWB(e, rigBase, pte.PFN, r.store); err == nil {
		t.Fatal("EWB of unblocked page accepted")
	}
	if err := r.cpu.EBLOCK(e, rigBase, pte.PFN); err != nil {
		t.Fatal(err)
	}
	if err := r.cpu.EWB(e, rigBase, pte.PFN, r.store); !errors.Is(err, ErrNotTracked) {
		t.Fatalf("EWB without ETRACK: %v", err)
	}
	if err := r.cpu.ETRACK(e); err != nil {
		t.Fatal(err)
	}
	if err := r.cpu.EWB(e, rigBase, pte.PFN, r.store); !errors.Is(err, ErrNotTracked) {
		t.Fatalf("EWB without shootdown: %v", err)
	}
	r.cpu.CompleteShootdown(e)
	if err := r.cpu.EWB(e, rigBase, pte.PFN, r.store); err != nil {
		t.Fatalf("EWB after full dance: %v", err)
	}
}

func evictOne(t *testing.T, r *testRig, e *Enclave, va mmu.VAddr) {
	t.Helper()
	pte, _ := r.pt.Get(va)
	if err := r.cpu.EBLOCK(e, va, pte.PFN); err != nil {
		t.Fatal(err)
	}
	r.pt.Unmap(va)
	if err := r.cpu.ETRACK(e); err != nil {
		t.Fatal(err)
	}
	r.tlb.Shootdown(va)
	r.cpu.CompleteShootdown(e)
	if err := r.cpu.EWB(e, va, pte.PFN, r.paging); err != nil {
		t.Fatal(err)
	}
}

func TestEWBELDURoundTripPreservesContent(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclave(t, 0, 1)
	pte, _ := r.pt.Get(rigBase)
	want := make([]byte, mmu.PageSize)
	copy(want, r.epc.Data(pte.PFN))
	free := r.epc.FreeFrames()

	evictOne(t, r, e, rigBase)
	if r.epc.FreeFrames() != free+1 {
		t.Fatal("EWB did not free the frame")
	}
	pfn, err := r.cpu.ELDU(e, rigBase, r.store)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.epc.Data(pfn), want) {
		t.Fatal("page content corrupted across EWB/ELDU")
	}
	ent := r.epc.Entry(pfn).EPCM
	if !ent.Valid || ent.LinAddr != rigBase || ent.Perms != mmu.PermRW {
		t.Fatalf("EPCM not restored: %+v", ent)
	}
}

// keepBlob copies the blob the store holds for the rig page: the stale
// version a replay puts back once a newer one is stored.
func keepBlob(t *testing.T, r *testRig, e *Enclave) pagestore.Blob {
	t.Helper()
	b, err := r.store.Get(e.ID, rigBase)
	if err != nil {
		t.Fatal(err)
	}
	b.Ciphertext = append([]byte(nil), b.Ciphertext...)
	return b
}

func TestELDURejectsReplayedBlob(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclave(t, 0, 1)
	// Evict, reload, evict again — then replay the first blob.
	evictOne(t, r, e, rigBase)
	stale := keepBlob(t, r, e)
	pfn, err := r.cpu.ELDU(e, rigBase, r.store)
	if err != nil {
		t.Fatal(err)
	}
	r.pt.Map(rigBase, pfn, mmu.PermRW, true)
	r.epc.Data(pfn)[0] = 0x77 // new content
	evictOne(t, r, e, rigBase)
	r.store.Put(e.ID, rigBase, stale)
	if _, err := r.cpu.ELDU(e, rigBase, r.store); !errors.Is(err, pagestore.ErrIntegrity) {
		t.Fatalf("replayed blob loaded: %v", err)
	}
}

func TestELDURejectsTamperedBlob(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclave(t, 0, 1)
	evictOne(t, r, e, rigBase)
	r.store.Corrupt(e.ID, rigBase)
	if _, err := r.cpu.ELDU(e, rigBase, r.store); !errors.Is(err, pagestore.ErrIntegrity) {
		t.Fatalf("tampered blob loaded: %v", err)
	}
}

// TestELDUDistinguishesFailureModes covers the hardware VA-page blob format
// end to end: each attack on the backing store surfaces its refined unseal
// sentinel through ELDU, and all of them remain ErrIntegrity failures.
func TestELDUDistinguishesFailureModes(t *testing.T) {
	t.Run("truncated", func(t *testing.T) {
		r := newRig(t)
		e, _ := r.buildEnclave(t, 0, 1)
		evictOne(t, r, e, rigBase)
		blob, err := r.store.Get(e.ID, rigBase)
		if err != nil {
			t.Fatal(err)
		}
		blob.Ciphertext = blob.Ciphertext[:8]
		r.store.Put(e.ID, rigBase, blob)
		_, err = r.cpu.ELDU(e, rigBase, r.store)
		if !errors.Is(err, pagestore.ErrTruncated) || !errors.Is(err, pagestore.ErrIntegrity) {
			t.Fatalf("truncated blob: %v, want ErrTruncated wrapping ErrIntegrity", err)
		}
	})

	t.Run("bit-flipped", func(t *testing.T) {
		r := newRig(t)
		e, _ := r.buildEnclave(t, 0, 1)
		evictOne(t, r, e, rigBase)
		if !r.store.Corrupt(e.ID, rigBase) {
			t.Fatal("no blob to corrupt")
		}
		_, err := r.cpu.ELDU(e, rigBase, r.store)
		if !errors.Is(err, pagestore.ErrIntegrity) {
			t.Fatalf("tampered blob: %v, want ErrIntegrity", err)
		}
		// Metadata is intact, so no refinement may claim a diagnosis.
		for _, ref := range []error{pagestore.ErrTruncated, pagestore.ErrStaleVersion, pagestore.ErrWrongEnclave} {
			if errors.Is(err, ref) {
				t.Fatalf("tampered blob misdiagnosed as %v", ref)
			}
		}
	})

	t.Run("replayed stale version", func(t *testing.T) {
		r := newRig(t)
		e, _ := r.buildEnclave(t, 0, 1)
		evictOne(t, r, e, rigBase)
		stale := keepBlob(t, r, e)
		pfn, err := r.cpu.ELDU(e, rigBase, r.store)
		if err != nil {
			t.Fatal(err)
		}
		r.pt.Map(rigBase, pfn, mmu.PermRW, true)
		evictOne(t, r, e, rigBase)
		r.store.Put(e.ID, rigBase, stale)
		_, err = r.cpu.ELDU(e, rigBase, r.store)
		if !errors.Is(err, pagestore.ErrStaleVersion) || !errors.Is(err, pagestore.ErrIntegrity) {
			t.Fatalf("replayed blob: %v, want ErrStaleVersion wrapping ErrIntegrity", err)
		}
	})

	t.Run("wrong enclave", func(t *testing.T) {
		r := newRig(t)
		a, _ := r.buildEnclave(t, 0, 1)
		evictOne(t, r, a, rigBase)
		// A second enclave over the same address range (A's page is out of
		// the page table, so the mapping slot is free for B).
		b, _ := r.buildEnclave(t, 0, 1)
		evictOne(t, r, b, rigBase)
		// Swap the two enclaves' blobs in the untrusted store. A's is
		// copied first: a Put overwrites the view Get returned.
		blobA := keepBlob(t, r, a)
		blobB, err := r.store.Get(b.ID, rigBase)
		if err != nil {
			t.Fatal(err)
		}
		r.store.Put(a.ID, rigBase, blobB)
		r.store.Put(b.ID, rigBase, blobA)
		_, err = r.cpu.ELDU(b, rigBase, r.store)
		if !errors.Is(err, pagestore.ErrWrongEnclave) || !errors.Is(err, pagestore.ErrIntegrity) {
			t.Fatalf("cross-enclave blob: %v, want ErrWrongEnclave wrapping ErrIntegrity", err)
		}
	})
}

func TestELDUOfNeverEvictedPage(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclave(t, 0, 1)
	if _, err := r.cpu.ELDU(e, rigBase+mmu.PageSize, r.store); err == nil {
		t.Fatal("ELDU of never-evicted page succeeded")
	}
}

func TestPagingInstructionsArePrivileged(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, 0, 1)
	pte, _ := r.pt.Get(rigBase)
	r.onEntry = func(*TCS) {
		if err := r.cpu.EBLOCK(e, rigBase, pte.PFN); !errors.Is(err, ErrOutsideEnclave) {
			t.Errorf("EBLOCK in enclave mode: %v", err)
		}
		if err := r.cpu.EWB(e, rigBase, pte.PFN, r.store); !errors.Is(err, ErrOutsideEnclave) {
			t.Errorf("EWB in enclave mode: %v", err)
		}
		// But a host service thread (exitless) may run them.
		err := r.cpu.AsHost(func() error { return r.cpu.EBLOCK(e, rigBase, pte.PFN) })
		if err != nil {
			t.Errorf("AsHost EBLOCK: %v", err)
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
}

func TestBlockedPageFaultsOnAccess(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, 0, 1)
	pte, _ := r.pt.Get(rigBase)
	if err := r.cpu.EBLOCK(e, rigBase, pte.PFN); err != nil {
		t.Fatal(err)
	}
	r.tlb.FlushAll(1)
	faulted := false
	r.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		faulted = true
		return errors.New("stop")
	}
	r.onEntry = func(*TCS) {
		_ = r.cpu.Touch(rigBase, mmu.AccessRead)
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("access to blocked page did not fault")
	}
}

// --- SGXv2 ------------------------------------------------------------------

func TestEAUGAcceptCopyFlow(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSGX2|AttrSelfPaging, 2)
	va := rigBase + mmu.PageSize // page 1 exists; use a fresh region instead
	_ = va
	// Extend ELRANGE usage: page index 1 is EADDed; re-use the enclave by
	// trimming it first is complex — instead create a 4-page enclave.
	r2 := newRig(t)
	e, tcs = r2.buildEnclaveSparse(t, AttrSGX2|AttrSelfPaging, 4, 2)
	target := rigBase + 2*mmu.PageSize
	pfn, err := r2.cpu.EAUG(e, target)
	if err != nil {
		t.Fatal(err)
	}
	r2.pt.MapAD(target, pfn, mmu.PermRW, true, true, true)
	// Pending page faults until EACCEPTed.
	faulted := false
	r2.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		faulted = true
		return errors.New("stop")
	}
	r2.onEntry = func(*TCS) {
		if err := r2.cpu.Touch(target, mmu.AccessRead); err == nil || !faulted {
			t.Error("pending page did not fault")
		}
	}
	_ = r2.cpu.EEnter(e, tcs)

	// Accept with content and use it.
	r2.onFault = nil
	content := []byte{0xaa, 0xbb}
	r2.onEntry = func(*TCS) {
		if err := r2.cpu.EACCEPTCOPY(target, pfn, content, mmu.PermRW); err != nil {
			t.Errorf("EACCEPTCOPY: %v", err)
			return
		}
		if err := r2.cpu.Touch(target, mmu.AccessRead); err != nil {
			t.Errorf("access after accept: %v", err)
		}
	}
	if err := r2.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r2.epc.Data(pfn)[:2], content) {
		t.Fatal("EACCEPTCOPY content wrong")
	}
}

// buildEnclaveSparse builds an enclave with an ELRANGE of total pages but
// only the first mapped EADDed.
func (r *testRig) buildEnclaveSparse(t *testing.T, attrs Attributes, total, added int) (*Enclave, *TCS) {
	t.Helper()
	e, err := r.cpu.ECREATE(rigBase, uint64(total)*mmu.PageSize, attrs)
	if err != nil {
		t.Fatal(err)
	}
	e.Runtime = rigRuntime{r}
	for i := 0; i < added; i++ {
		va := rigBase + mmu.VAddr(i*mmu.PageSize)
		pfn, err := r.cpu.EADD(e, va, nil, mmu.PermRW, PTReg)
		if err != nil {
			t.Fatal(err)
		}
		if attrs.Has(AttrSelfPaging) {
			r.pt.MapAD(va, pfn, mmu.PermRW, true, true, true)
		} else {
			r.pt.Map(va, pfn, mmu.PermRW, true)
		}
	}
	tcs, err := r.cpu.AddTCS(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cpu.EINIT(e); err != nil {
		t.Fatal(err)
	}
	return e, tcs
}

func TestEAUGRequiresSGX2(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclaveSparse(t, AttrSelfPaging, 2, 1)
	if _, err := r.cpu.EAUG(e, rigBase+mmu.PageSize); err == nil {
		t.Fatal("EAUG on SGXv1 enclave accepted")
	}
}

func TestEMODPRRestrictsAndEACCEPTConfirms(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSGX2|AttrSelfPaging, 1)
	pte, _ := r.pt.Get(rigBase)
	if err := r.cpu.EMODPR(e, rigBase, pte.PFN, mmu.PermRead|mmu.PermUser); err != nil {
		t.Fatal(err)
	}
	if err := r.cpu.EMODPR(e, rigBase, pte.PFN, mmu.PermRWX); err == nil {
		t.Fatal("EMODPR extended permissions")
	}
	r.onEntry = func(*TCS) {
		if err := r.cpu.EACCEPT(rigBase, pte.PFN); err != nil {
			t.Errorf("EACCEPT: %v", err)
		}
		if err := r.cpu.EACCEPT(rigBase, pte.PFN); err == nil {
			t.Error("double EACCEPT succeeded")
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
}

func TestEMODTTrimAndEREMOVE(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSGX2|AttrSelfPaging, 1)
	pte, _ := r.pt.Get(rigBase)
	if err := r.cpu.EREMOVE(e, rigBase, pte.PFN); err == nil {
		t.Fatal("EREMOVE of live page accepted")
	}
	if err := r.cpu.EMODT(e, rigBase, pte.PFN, PTTrim); err != nil {
		t.Fatal(err)
	}
	r.onEntry = func(*TCS) {
		if err := r.cpu.EACCEPT(rigBase, pte.PFN); err != nil {
			t.Errorf("EACCEPT trim: %v", err)
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	free := r.epc.FreeFrames()
	if err := r.cpu.EREMOVE(e, rigBase, pte.PFN); err != nil {
		t.Fatal(err)
	}
	if r.epc.FreeFrames() != free+1 {
		t.Fatal("EREMOVE did not free frame")
	}
}

func TestTimerAEXDoesNotSetPendingFlag(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging, 2)
	r.cpu.TimerInterval = 3
	ticks := 0
	r.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		return errors.New("no faults expected")
	}
	// HandleTimer (in the rig) silently ERESUMEs — allowed for timer AEXs.
	r.onEntry = func(*TCS) {
		for i := 0; i < 20; i++ {
			if err := r.cpu.Touch(rigBase, mmu.AccessRead); err != nil {
				t.Errorf("access %d: %v", i, err)
				return
			}
		}
		ticks = int(metrics.Of(r.clock).Count(metrics.CntAEXs))
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("timer never fired")
	}
	if tcs.PendingException() {
		t.Fatal("timer AEX set the pending-exception flag")
	}
}

func TestReadWriteThroughTranslation(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, 0, 2)
	r.onEntry = func(*TCS) {
		data := []byte("hello across a page boundary!")
		va := rigBase + mmu.PageSize - 10 // spans two pages
		if err := r.cpu.Write(va, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got := make([]byte, len(data))
		if err := r.cpu.Read(va, got); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Errorf("got %q", got)
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
}

func TestTerminationReasonStrings(t *testing.T) {
	for _, reason := range []TerminationReason{TerminateNone, TerminateAttackDetected, TerminateRateLimit, TerminateIntegrity, TerminatePolicy} {
		if reason.String() == "unknown" || reason.String() == "" {
			t.Errorf("reason %d has no name", reason)
		}
	}
}

func TestPageTypeStrings(t *testing.T) {
	if PTReg.String() != "REG" || PTTCS.String() != "TCS" || PTTrim.String() != "TRIM" {
		t.Fatal("page type names wrong")
	}
}

func TestRegularMemoryPool(t *testing.T) {
	m := NewRegularMemory(1 << 20)
	a := m.Alloc()
	b := m.Alloc()
	if a == b {
		t.Fatal("duplicate frames")
	}
	if !m.Contains(a) || m.Contains(0xdead) {
		t.Fatal("Contains wrong")
	}
	m.Data(a)[0] = 0x7f
	m.Free(a)
	if m.Allocated() != 1 {
		t.Fatalf("Allocated = %d", m.Allocated())
	}
	c := m.Alloc() // reuses a, zeroed
	if c != a {
		t.Fatalf("free frame not reused: %d vs %d", c, a)
	}
	if m.Data(c)[0] != 0 {
		t.Fatal("reused regular frame not zeroed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("freeing unknown frame did not panic")
		}
	}()
	m.Free(0xdead)
}

func TestRegularMemoryBaseValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero base accepted")
		}
	}()
	NewRegularMemory(0)
}

func TestCPUAccessors(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging, 1)
	if r.cpu.Enclave(e.ID) != e {
		t.Fatal("Enclave lookup wrong")
	}
	if !e.Initialized() {
		t.Fatal("Initialized() false after EINIT")
	}
	if e.TCS(tcs.ID) != tcs {
		t.Fatal("TCS lookup wrong")
	}
	if e.Version(rigBase) != 0 {
		t.Fatal("fresh page version non-zero")
	}
	r.onEntry = func(got *TCS) {
		if r.cpu.CurrentTCS() != got {
			t.Error("CurrentTCS wrong inside enclave")
		}
		if _, in := r.cpu.InEnclave(); !in {
			t.Error("InEnclave false inside enclave")
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if _, in := r.cpu.InEnclave(); in {
		t.Fatal("InEnclave true after EEXIT")
	}
}

func TestInEnclaveResumeSkipsExitAndResume(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging|AttrInEnclaveResume, 2)
	target := rigBase + mmu.PageSize
	r.onFault = func(c *CPU, e2 *Enclave, tcs2 *TCS, f *mmu.Fault) error {
		r.pt.SetAD(target, true)
		r.pt.SetPresent(target, true)
		if err := c.EEnter(e2, tcs2); err != nil {
			return err
		}
		// The handler resumed in-enclave: the CPU must still be in enclave
		// mode and the OS must NOT call ERESUME.
		if _, in := c.InEnclave(); !in {
			t.Error("not in enclave mode after in-enclave resume")
		}
		return nil
	}
	entered := 0
	r.onEntry = func(tcs2 *TCS) {
		entered++
		if entered > 1 {
			// Fault-handler entry: pop the frame and resume in-enclave.
			if _, ok := tcs2.TopSSA(); !ok {
				t.Error("no SSA frame on handler entry")
			}
			r.cpu.ResumeInEnclave()
			return
		}
		r.pt.SetPresent(target, false)
		r.tlb.Invalidate(target)
		if err := r.cpu.Touch(target, mmu.AccessRead); err != nil {
			t.Errorf("access: %v", err)
		}
	}
	m := metrics.Of(r.clock)
	resumesBefore := m.Count(metrics.CntResumes)
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	if m.Count(metrics.CntResumes) != resumesBefore {
		t.Fatal("ERESUME was used despite in-enclave resume")
	}
	if tcs.CSSA() != 0 {
		t.Fatalf("SSA stack not popped: CSSA=%d", tcs.CSSA())
	}
}

func TestResumeInEnclaveRequiresAttribute(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging, 1)
	r.onEntry = func(*TCS) {
		defer func() {
			if recover() == nil {
				t.Error("ResumeInEnclave without attribute did not panic")
			}
		}()
		r.cpu.ResumeInEnclave()
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenPageView: the in-enclave view of a page is granted only once
// EMODPR and EACCEPT have frozen it read-only, aliases the EPC frame
// rather than copying it, and is refused outside enclave mode.
func TestFrozenPageView(t *testing.T) {
	r := newRig(t)
	e, tcs := r.buildEnclave(t, AttrSelfPaging|AttrSGX2, 2)
	pte, _ := r.pt.Get(rigBase)
	r.onEntry = func(*TCS) {
		if _, err := r.cpu.FrozenPage(rigBase, pte.PFN); !errors.Is(err, ErrEPCMConflict) {
			t.Errorf("writable page: %v, want ErrEPCMConflict", err)
		}
		if err := r.cpu.AsHost(func() error { return r.cpu.EMODPR(e, rigBase, pte.PFN, mmu.PermRead) }); err != nil {
			t.Fatal(err)
		}
		if _, err := r.cpu.FrozenPage(rigBase, pte.PFN); !errors.Is(err, ErrEPCMConflict) {
			t.Errorf("restriction not yet accepted: %v, want ErrEPCMConflict", err)
		}
		if err := r.cpu.EACCEPT(rigBase, pte.PFN); err != nil {
			t.Fatal(err)
		}
		other, _ := r.pt.Get(rigBase + mmu.PageSize)
		if _, err := r.cpu.FrozenPage(rigBase+mmu.PageSize, pte.PFN); !errors.Is(err, ErrEPCMConflict) {
			t.Errorf("frame of another page: %v, want ErrEPCMConflict", err)
		}
		if _, err := r.cpu.FrozenPage(rigBase+mmu.PageSize, other.PFN); !errors.Is(err, ErrEPCMConflict) {
			t.Errorf("unfrozen second page: %v, want ErrEPCMConflict", err)
		}
		view, err := r.cpu.FrozenPage(rigBase, pte.PFN)
		if err != nil {
			t.Errorf("FrozenPage: %v", err)
			return
		}
		if len(view) != mmu.PageSize || view[0] != 0 { // EADDed with content byte(i) where i=0
			t.Errorf("view %d bytes, first %x", len(view), view[0])
		}
		if &view[0] != &r.epc.Data(pte.PFN)[0] {
			t.Error("view is a copy, not the frame")
		}
	}
	if err := r.cpu.EEnter(e, tcs); err != nil {
		t.Fatal(err)
	}
	// Outside enclave mode: rejected.
	if _, err := r.cpu.FrozenPage(rigBase, pte.PFN); !errors.Is(err, ErrOutsideEnclave) {
		t.Fatalf("host FrozenPage: %v", err)
	}
}

func TestEnclaveSealerExposed(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclave(t, AttrSelfPaging, 1)
	if e.Sealer() == nil {
		t.Fatal("no sealer")
	}
}

func TestEPCNumFrames(t *testing.T) {
	epc := NewEPC(0x100, 7)
	if epc.NumFrames() != 7 {
		t.Fatalf("NumFrames = %d", epc.NumFrames())
	}
}

func TestTerminationErrorMessage(t *testing.T) {
	e := &TerminationError{Reason: TerminateRateLimit, Detail: "too many"}
	if e.Error() == "" {
		t.Fatal("empty message")
	}
}

// TestSeedVersionsStaysInELRANGE: the version chain has a counter only for
// the enclave's own pages, so a seed naming any other page — just below
// Base, just past the end, or one whose address would wrap onto Base — is
// refused, while a seed inside the range lands on its page.
func TestSeedVersionsStaysInELRANGE(t *testing.T) {
	r := newRig(t)
	e, err := r.cpu.ECREATE(rigBase, 2*mmu.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := rigBase.VPN()
	for _, vpn := range []uint64{first - 1, first + 2, first + 1<<52} {
		if err := e.SeedVersions(map[uint64]uint64{vpn: 1}); !errors.Is(err, ErrBadAddress) {
			t.Errorf("seed for page number %#x: %v, want ErrBadAddress", vpn, err)
		}
	}
	if err := e.SeedVersions(map[uint64]uint64{first + 1: 7}); err != nil {
		t.Fatal(err)
	}
	if got := e.Version(rigBase + mmu.PageSize); got != 7 {
		t.Fatalf("seeded version %d, want 7", got)
	}
	if got := e.VersionVPNs(nil); len(got) != 1 || got[0] != first+1 {
		t.Fatalf("VersionVPNs = %#x, want [%#x]", got, first+1)
	}
}

func TestVersionAdvancesAcrossEvictions(t *testing.T) {
	r := newRig(t)
	e, _ := r.buildEnclave(t, 0, 1)
	if e.Version(rigBase) != 0 {
		t.Fatal("initial version")
	}
	evictOne(t, r, e, rigBase)
	if e.Version(rigBase) != 1 {
		t.Fatalf("version after first EWB = %d", e.Version(rigBase))
	}
	pfn, err := r.cpu.ELDU(e, rigBase, r.store)
	if err != nil {
		t.Fatal(err)
	}
	r.pt.Map(rigBase, pfn, mmu.PermRW, true)
	evictOne(t, r, e, rigBase)
	if e.Version(rigBase) != 2 {
		t.Fatalf("version after second EWB = %d", e.Version(rigBase))
	}
}
