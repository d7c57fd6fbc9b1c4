package hostos

import (
	"errors"
	"testing"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
	"autarky/internal/sim"
	"autarky/internal/trace"
)

type testMachine struct {
	clock  *sim.Clock
	pt     *mmu.PageTable
	cpu    *sgx.CPU
	kernel *Kernel
}

func newMachine() *testMachine { return newMachineFrames(512) }

// newMachineFrames builds a host with epcFrames of physical EPC.
func newMachineFrames(epcFrames int) *testMachine {
	k := NewHost(sim.NewClock(), sim.DefaultCosts(), DefaultGeometry(epcFrames), []byte("t"))
	return &testMachine{clock: k.Clock, pt: k.PT, cpu: k.CPU, kernel: k}
}

// count reads one of the machine's registry counters.
func (m *testMachine) count(c metrics.Counter) uint64 { return metrics.Of(m.clock).Count(c) }

// appRuntime runs a closure on entry, ignoring exception entries.
type appRuntime struct {
	app func()
}

func (a *appRuntime) OnEntry(tcs *sgx.TCS) {
	if tcs.CSSA() == 0 && a.app != nil {
		f := a.app
		a.app = nil // run once
		f()
	}
}

const base = mmu.VAddr(0x200000)

func spec(pages, quota int, selfPaging bool, rt sgx.Runtime) EnclaveSpec {
	attrs := sgx.Attributes(0)
	if selfPaging {
		attrs |= sgx.AttrSelfPaging
	}
	return EnclaveSpec{
		Base:  base,
		Size:  uint64(pages) * mmu.PageSize,
		Attrs: attrs,
		Runtime: func() sgx.Runtime {
			if rt != nil {
				return rt
			}
			return &appRuntime{}
		}(),
		Segments: []Segment{{VA: base, Pages: pages, Perms: mmu.PermRW}},
		Quota:    quota,
	}
}

func TestLoadEnclaveMapsAllPages(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(8, 0, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	if p.ResidentPages() != 8 {
		t.Fatalf("resident = %d", p.ResidentPages())
	}
	if got := len(p.PageVAs()); got != 8 {
		t.Fatalf("PageVAs = %d", got)
	}
	for i := 0; i < 8; i++ {
		pte, ok := m.pt.Get(base + mmu.VAddr(i*mmu.PageSize))
		if !ok || !pte.Present || !pte.EPC {
			t.Fatalf("page %d not mapped: %+v %v", i, pte, ok)
		}
	}
}

func TestLoadEnclaveSelfPagingMapsWithAD(t *testing.T) {
	m := newMachine()
	if _, err := m.kernel.LoadEnclave(spec(4, 0, true, nil)); err != nil {
		t.Fatal(err)
	}
	pte, _ := m.pt.Get(base)
	if !pte.Accessed || !pte.Dirty {
		t.Fatal("self-paging mappings must carry A/D set (§5.1.4)")
	}
}

func TestLoadEnclaveSpillsOverQuota(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(16, 10, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	if p.ResidentPages() > 10 {
		t.Fatalf("resident %d exceeds quota 10", p.ResidentPages())
	}
	if m.kernel.Store.Len() == 0 {
		t.Fatal("no pages spilled to the backing store")
	}
}

// TestLoadEnclaveFailureUnloads: a load that fails at its last step, EINIT,
// after EADDing every page and spilling the tail past its quota, leaves no
// registration, no EPC frame and no sealed blob behind.
func TestLoadEnclaveFailureUnloads(t *testing.T) {
	m := newMachine()
	sp := spec(16, 10, false, nil)
	sp.Runtime = nil // EINIT refuses an enclave without an entry point
	if _, err := m.kernel.LoadEnclave(sp); err == nil {
		t.Fatal("EINIT without a runtime succeeded")
	}
	if p := m.kernel.ProcAt(base); p != nil {
		t.Fatalf("failed load left enclave %d registered", p.E.ID)
	}
	if free, total := m.cpu.EPC.FreeFrames(), m.cpu.EPC.NumFrames(); free != total {
		t.Fatalf("failed load left %d of %d EPC frames allocated", total-free, total)
	}
	if n := m.kernel.Store.Len(); n != 0 {
		t.Fatalf("failed load left %d sealed blobs in the store", n)
	}
	if err := m.kernel.SetBackend(m.kernel.Backend()); err != nil {
		t.Fatalf("SetBackend after a failed load: %v", err)
	}
	if _, err := m.kernel.LoadEnclave(spec(16, 10, false, nil)); err != nil {
		t.Fatalf("reload at the same base: %v", err)
	}
}

func TestLegacyDemandPagingRoundTrip(t *testing.T) {
	m := newMachine()
	rt := &appRuntime{}
	p, err := m.kernel.LoadEnclave(spec(16, 10, false, rt))
	if err != nil {
		t.Fatal(err)
	}
	var accessErr error
	rt.app = func() {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 16; i++ {
				if err := m.cpu.Touch(base+mmu.VAddr(i*mmu.PageSize), mmu.AccessWrite); err != nil {
					accessErr = err
					return
				}
			}
		}
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if accessErr != nil {
		t.Fatal(accessErr)
	}
	if ins, outs := m.count(metrics.CntOSPageIns), m.count(metrics.CntOSPageOuts); ins == 0 || outs == 0 {
		t.Fatalf("paging not exercised: ins=%d outs=%d", ins, outs)
	}
	if p.ResidentPages() > 10 {
		t.Fatalf("quota violated: %d", p.ResidentPages())
	}
}

func TestClockGivesSecondChance(t *testing.T) {
	m := newMachine()
	rt := &appRuntime{}
	p, err := m.kernel.LoadEnclave(spec(12, 8, false, rt))
	if err != nil {
		t.Fatal(err)
	}
	hot := base // page 0 is touched constantly
	var hotEvictions int
	rt.app = func() {
		for i := 0; i < 200; i++ {
			_ = m.cpu.Touch(hot, mmu.AccessRead)
			_ = m.cpu.Touch(base+mmu.VAddr((1+i%11)*mmu.PageSize), mmu.AccessRead)
			if resident, _, _ := p.Page(hot); !resident {
				hotEvictions++
			}
		}
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	// CLOCK should rarely evict the hot page (its A bit is always set).
	if hotEvictions > 6 {
		t.Fatalf("hot page evicted %d times under CLOCK", hotEvictions)
	}
}

func TestDriverSetManagedPinsPages(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(16, 10, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	e := p.E
	status, err := m.kernel.SetEnclaveManaged(e, p.PageVAs())
	if err != nil {
		t.Fatal(err)
	}
	if len(status) != 16 {
		t.Fatalf("status count %d", len(status))
	}
	resident := 0
	for _, st := range status {
		if st.Resident {
			resident++
		}
	}
	if resident != p.ResidentPages() {
		t.Fatalf("status resident %d vs proc %d", resident, p.ResidentPages())
	}
	// Now everything is pinned: kernel reclaim must refuse.
	if n := m.kernel.ReclaimFromEnclave(p, 1); n != 0 {
		t.Fatalf("reclaimed %d pinned pages", n)
	}
	// Release half and reclaim works again.
	if err := m.kernel.SetOSManaged(e, p.PageVAs()[:8]); err != nil {
		t.Fatal(err)
	}
	if n := m.kernel.ReclaimFromEnclave(p, 4); n == 0 {
		t.Fatal("reclaim failed after SetOSManaged")
	}
}

func TestDriverFetchEvictRoundTrip(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(8, 0, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	e := p.E
	vas := p.PageVAs()[:4]
	if _, err := m.kernel.SetEnclaveManaged(e, vas); err != nil {
		t.Fatal(err)
	}
	if err := m.kernel.EvictPages(e, vas); err != nil {
		t.Fatal(err)
	}
	for _, va := range vas {
		if resident, _, _ := p.Page(va); resident {
			t.Fatalf("%s still resident after EvictPages", va)
		}
		if pte, ok := m.pt.Get(va); ok && pte.Present {
			t.Fatalf("%s still mapped after EvictPages", va)
		}
	}
	if err := m.kernel.FetchPages(e, vas); err != nil {
		t.Fatal(err)
	}
	for _, va := range vas {
		if resident, _, _ := p.Page(va); !resident {
			t.Fatalf("%s not resident after FetchPages", va)
		}
		pte, ok := m.pt.Get(va)
		if !ok || !pte.Present || !pte.Accessed || !pte.Dirty {
			t.Fatalf("%s not remapped with A/D: %+v", va, pte)
		}
	}
	if evicts, fetches := m.count(metrics.CntDriverEvicts), m.count(metrics.CntDriverFetches); evicts != 4 || fetches != 4 {
		t.Fatalf("driver stats: evicts=%d fetches=%d", evicts, fetches)
	}
}

func TestFetchPagesReturnsPressureWhenAllPinned(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(16, 10, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	e := p.E
	vas := p.PageVAs()
	if _, err := m.kernel.SetEnclaveManaged(e, vas); err != nil {
		t.Fatal(err)
	}
	// Find a non-resident page and try to fetch it: quota full of pinned
	// pages -> pressure.
	var missing mmu.VAddr
	for _, va := range vas {
		if resident, _, _ := p.Page(va); !resident {
			missing = va
			break
		}
	}
	if missing == 0 {
		t.Fatal("no spilled page to fetch")
	}
	if err := m.kernel.FetchPages(e, []mmu.VAddr{missing}); !errors.Is(err, ErrEPCPressure) {
		t.Fatalf("expected pressure, got %v", err)
	}
}

func TestFetchPagesRemapsBrokenResidentPTE(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(4, 0, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	m.kernel.UnmapPage(base)
	if err := m.kernel.FetchPages(p.E, []mmu.VAddr{base}); err != nil {
		t.Fatal(err)
	}
	pte, _ := m.pt.Get(base)
	if !pte.Present {
		t.Fatal("resident page not remapped")
	}
}

func TestQuotaReporting(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(16, 10, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	limit, resident := m.kernel.Quota(p.E)
	if limit != 10 || resident != p.ResidentPages() {
		t.Fatalf("Quota = %d/%d", limit, resident)
	}
}

func TestUnknownPageRejected(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(4, 0, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	bogus := base + 100*mmu.PageSize
	if err := m.kernel.FetchPages(p.E, []mmu.VAddr{bogus}); !errors.Is(err, ErrUnknownPage) {
		t.Fatalf("bogus fetch: %v", err)
	}
	if _, err := m.kernel.SetEnclaveManaged(p.E, []mmu.VAddr{bogus}); !errors.Is(err, ErrUnknownPage) {
		t.Fatalf("bogus manage: %v", err)
	}
	// An eviction batch naming an unknown page fails before it blocks any
	// page: the known page stays resident and mapped.
	good := p.PageVAs()[0]
	if _, err := m.kernel.SetEnclaveManaged(p.E, []mmu.VAddr{good}); err != nil {
		t.Fatal(err)
	}
	if err := m.kernel.EvictPages(p.E, []mmu.VAddr{good, bogus}); !errors.Is(err, ErrUnknownPage) {
		t.Fatalf("bogus evict: %v", err)
	}
	if resident, _, _ := p.Page(good); !resident {
		t.Fatalf("%s evicted by a refused batch", good)
	}
	if pte, ok := m.pt.Get(good); !ok || !pte.Present {
		t.Fatalf("%s unmapped by a refused batch", good)
	}
}

func TestHostDemandAllocation(t *testing.T) {
	m := newMachine()
	// A host-mode access to unmapped regular memory demand-allocates.
	va := mmu.VAddr(0x9000_0000)
	if err := m.cpu.Touch(va, mmu.AccessWrite); err != nil {
		t.Fatal(err)
	}
	if got := m.count(metrics.CntFaultHost); got != 1 {
		t.Fatalf("host faults = %d", got)
	}
	pte, ok := m.pt.Get(va)
	if !ok || !pte.Present || pte.EPC {
		t.Fatalf("host page not mapped: %+v", pte)
	}
}

func TestAttackOpsManipulatePTEs(t *testing.T) {
	m := newMachine()
	if _, err := m.kernel.LoadEnclave(spec(4, 0, false, nil)); err != nil {
		t.Fatal(err)
	}
	if !m.kernel.UnmapPage(base) {
		t.Fatal("UnmapPage failed")
	}
	if pte, _ := m.pt.Get(base); pte.Present {
		t.Fatal("page still present")
	}
	if !m.kernel.RestorePage(base) {
		t.Fatal("RestorePage failed")
	}
	if !m.kernel.ReducePerms(base, mmu.PermRead|mmu.PermUser) {
		t.Fatal("ReducePerms failed")
	}
	m.pt.SetAD(base, true)
	if !m.kernel.ClearAccessedBit(base) {
		t.Fatal("ClearAccessedBit failed")
	}
	a, d, ok := m.kernel.ReadADBits(base)
	if !ok || a {
		t.Fatalf("A bit not cleared: %v %v %v", a, d, ok)
	}
	if !m.kernel.ClearDirtyBit(base) {
		t.Fatal("ClearDirtyBit failed")
	}
	if m.kernel.UnmapPage(0xdeadbeef000) {
		t.Fatal("unmapped a nonexistent page")
	}
}

func TestSGX2ServiceFlow(t *testing.T) {
	m := newMachine()
	s := spec(8, 0, true, nil)
	s.Attrs |= sgx.AttrSGX2
	s.Segments = []Segment{{VA: base, Pages: 4, Perms: mmu.PermRW}}
	p, err := m.kernel.LoadEnclave(s)
	if err != nil {
		t.Fatal(err)
	}
	e := p.E
	// RestrictPerms + TrimPage + RemovePage round trip for an existing page
	// (the EACCEPT halves are exercised in core's tests; here only the
	// kernel-side bookkeeping).
	if _, err := m.kernel.RestrictPerms(e, base, mmu.PermRead|mmu.PermUser); err != nil {
		t.Fatal(err)
	}
	pte, _ := m.pt.Get(base)
	if pte.Perms.Allows(mmu.AccessWrite) {
		t.Fatal("PTE perms not restricted")
	}
	// EAUG a fresh page in the sparse tail of ELRANGE.
	fresh := base + 5*mmu.PageSize
	pfns, err := m.kernel.AugPages(e, []mmu.VAddr{fresh}, []mmu.Perms{mmu.PermRW})
	if err != nil || len(pfns) != 1 {
		t.Fatalf("AugPages: %v %v", pfns, err)
	}
	if resident, managed, ok := p.Page(fresh); !ok || !resident || !managed {
		t.Fatal("EAUGed page not tracked as resident+managed")
	}
	// Blob passthrough over the driver's backend transport.
	if err := m.kernel.Blobs().Evict(e.ID, fresh, pagestore.Blob{Ciphertext: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.kernel.Blobs().Fetch(e.ID, fresh); err != nil {
		t.Fatal(err)
	}
	if got := m.kernel.Blobs().Name(); got != "driver+store" {
		t.Fatalf("default backend stack name = %q", got)
	}
}

func TestSuspendResumeRoundTrip(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(12, 0, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.kernel.SetEnclaveManaged(p.E, p.PageVAs()[:8]); err != nil {
		t.Fatal(err)
	}
	n, err := m.kernel.SuspendEnclave(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 || p.ResidentPages() != 0 {
		t.Fatalf("suspend evicted %d, resident %d", n, p.ResidentPages())
	}
	if !p.Suspended() {
		t.Fatal("not marked suspended")
	}
	if _, err := m.kernel.SuspendEnclave(p); err == nil {
		t.Fatal("double suspend accepted")
	}
	if err := m.kernel.ResumeEnclave(p); err != nil {
		t.Fatal(err)
	}
	// The suspend swapped out all 12 pages; the resume paged the 8
	// enclave-managed ones back in.
	if ins, outs := m.count(metrics.CntOSPageIns), m.count(metrics.CntOSPageOuts); ins != 8 || outs != 12 {
		t.Fatalf("OS page-ins %d, page-outs %d; want 8 and 12", ins, outs)
	}
	// Every enclave-managed page is resident again; OS-managed ones are
	// demand paged later.
	for i, va := range p.PageVAs() {
		resident, managed, _ := p.Page(va)
		if managed && !resident {
			t.Fatalf("managed page %d not restored", i)
		}
	}
	if p.Suspended() {
		t.Fatal("still marked suspended")
	}
	if err := m.kernel.ResumeEnclave(p); err == nil {
		t.Fatal("double resume accepted")
	}
}

func TestHandleTimerBenign(t *testing.T) {
	m := newMachine()
	rt := &appRuntime{}
	p, err := m.kernel.LoadEnclave(spec(4, 0, true, rt))
	if err != nil {
		t.Fatal(err)
	}
	m.cpu.TimerInterval = 3
	rt.app = func() {
		for i := 0; i < 20; i++ {
			_ = m.cpu.Touch(base, mmu.AccessRead)
		}
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if m.count(metrics.CntTimerTicks) == 0 {
		t.Fatal("no timer ticks")
	}
	if m.count(metrics.CntOSFaults) != 0 {
		t.Fatal("benign timer caused faults")
	}
}

func TestObservedRecordsFaultsAndPageIns(t *testing.T) {
	// Driver fetches: each page the OS brings in is one page-in event.
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(8, 0, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	vas := p.PageVAs()[:3]
	if _, err := m.kernel.SetEnclaveManaged(p.E, vas); err != nil {
		t.Fatal(err)
	}
	if err := m.kernel.EvictPages(p.E, vas); err != nil {
		t.Fatal(err)
	}
	seen := &trace.Log{}
	m.kernel.Observed = seen
	if err := m.kernel.FetchPages(p.E, vas); err != nil {
		t.Fatal(err)
	}
	if seen.Len() != 3 || seen.Only(trace.KindPageIn).Len() != 3 {
		t.Fatalf("recorded %+v, want 3 page-ins", seen.Events)
	}
	pages := seen.DistinctPages()
	for i, va := range vas {
		if pages[i] != va.VPN() {
			t.Fatalf("page-in pages %v", pages)
		}
	}

	// A legacy enclave's fault reaches the OS with its address.
	m = newMachine()
	rt := &appRuntime{}
	p, err = m.kernel.LoadEnclave(spec(4, 0, false, rt))
	if err != nil {
		t.Fatal(err)
	}
	target := base + mmu.PageSize
	m.kernel.UnmapPage(target)
	rt.app = func() { _ = m.cpu.Touch(target, mmu.AccessWrite) }
	seen = &trace.Log{}
	m.kernel.Observed = seen
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if seen.Len() != 1 {
		t.Fatalf("recorded %+v, want one fault", seen.Events)
	}
	if ev := seen.Events[0]; ev.Kind != trace.KindFault || ev.Addr != target || ev.Type != mmu.AccessWrite {
		t.Fatalf("fault recorded as %+v", ev)
	}
	if m.count(metrics.CntOSFaults) != 1 {
		t.Fatalf("os.enclave_faults = %d", m.count(metrics.CntOSFaults))
	}
}

func TestPhysicalEPCPressureBalancesEnclaves(t *testing.T) {
	// A physically tiny EPC shared by two legacy enclaves with no
	// individual quotas: loading and running the second must reclaim
	// OS-managed frames from the first, and both keep working.
	m := newMachineFrames(40) // 40 frames total

	mkSpec := func(base mmu.VAddr, rt sgx.Runtime) EnclaveSpec {
		return EnclaveSpec{
			Base: base, Size: 24 * mmu.PageSize,
			Runtime:  rt,
			Segments: []Segment{{VA: base, Pages: 24, Perms: mmu.PermRW}},
		}
	}
	rt1, rt2 := &appRuntime{}, &appRuntime{}
	p1, err := m.kernel.LoadEnclave(mkSpec(0x100000, rt1))
	if err != nil {
		t.Fatal(err)
	}
	// Loading the second 24-page enclave into the 16 remaining frames must
	// force reclaim from the first.
	p2, err := m.kernel.LoadEnclave(mkSpec(0x900000, rt2))
	if err != nil {
		t.Fatalf("second enclave failed to load under physical pressure: %v", err)
	}
	if p1.ResidentPages() == 24 {
		t.Fatal("no frames reclaimed from the first enclave")
	}
	if m.cpu.EPC.FreeFrames() < 0 {
		t.Fatal("impossible")
	}
	run := func(p *Proc, rt *appRuntime, base mmu.VAddr) {
		rt.app = func() {
			for i := 0; i < 24; i++ {
				if err := m.cpu.Touch(base+mmu.VAddr(i*mmu.PageSize), mmu.AccessWrite); err != nil {
					t.Errorf("access: %v", err)
					return
				}
			}
		}
		if err := m.kernel.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	run(p1, rt1, 0x100000)
	run(p2, rt2, 0x900000)
	if ins, outs := m.count(metrics.CntOSPageIns), m.count(metrics.CntOSPageOuts); outs == 0 || ins == 0 {
		t.Fatalf("cross-enclave balancing not exercised: ins=%d outs=%d", ins, outs)
	}
}

func TestTrimAndRemovePageFlow(t *testing.T) {
	m := newMachine()
	s := spec(4, 0, true, nil)
	s.Attrs |= sgx.AttrSGX2
	p, err := m.kernel.LoadEnclave(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.kernel.procFor(p.E); err != nil || got != p {
		t.Fatalf("procFor = %p, %v; want the loaded proc", got, err)
	}
	pfn, err := m.kernel.TrimPage(p.E, base)
	if err != nil {
		t.Fatal(err)
	}
	// The enclave accepts the trim (enclave-mode instruction via a test
	// entry), then the OS removes the page.
	rt := p.E.Runtime.(*appRuntime)
	rt.app = func() {
		if err := m.cpu.EACCEPT(base, pfn); err != nil {
			t.Errorf("EACCEPT: %v", err)
		}
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if err := m.kernel.RemovePage(p.E, base); err != nil {
		t.Fatal(err)
	}
	if resident, _, _ := p.Page(base); resident {
		t.Fatal("page still resident after RemovePage")
	}
	if _, err := m.kernel.TrimPage(p.E, base); err == nil {
		t.Fatal("trim of non-resident page accepted")
	}
	if err := m.kernel.RemovePage(p.E, base); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestClassicOCallsCostMore(t *testing.T) {
	measure := func(classic bool) uint64 {
		m := newMachine()
		m.kernel.ClassicOCalls = classic
		p, err := m.kernel.LoadEnclave(spec(8, 0, true, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.kernel.SetEnclaveManaged(p.E, p.PageVAs()[:4]); err != nil {
			t.Fatal(err)
		}
		before := m.clock.Cycles()
		if err := m.kernel.EvictPages(p.E, p.PageVAs()[:4]); err != nil {
			t.Fatal(err)
		}
		if err := m.kernel.FetchPages(p.E, p.PageVAs()[:4]); err != nil {
			t.Fatal(err)
		}
		return m.clock.Cycles() - before
	}
	exitless, classic := measure(false), measure(true)
	if classic <= exitless {
		t.Fatalf("classic OCALLs (%d) not costlier than exitless (%d)", classic, exitless)
	}
}
