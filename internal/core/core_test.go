package core

import (
	"errors"
	"testing"

	"autarky/internal/cluster"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// fakeDriver is an in-memory Driver for unit-testing the runtime's
// bookkeeping and policies without a kernel.
type fakeDriver struct {
	limit    int
	resident map[uint64]bool
	managed  map[uint64]bool
	blobs    map[uint64]pagestore.Blob
	fetches  []mmu.VAddr
	evicts   []mmu.VAddr
	failNext error
}

func newFakeDriver(limit int) *fakeDriver {
	return &fakeDriver{
		limit:    limit,
		resident: make(map[uint64]bool),
		managed:  make(map[uint64]bool),
		blobs:    make(map[uint64]pagestore.Blob),
	}
}

func (d *fakeDriver) SetOSManaged(e *sgx.Enclave, pages []mmu.VAddr) error {
	for _, va := range pages {
		d.managed[va.VPN()] = false
	}
	return nil
}

func (d *fakeDriver) SetEnclaveManaged(e *sgx.Enclave, pages []mmu.VAddr) ([]PageStatus, error) {
	out := make([]PageStatus, 0, len(pages))
	for _, va := range pages {
		d.managed[va.VPN()] = true
		out = append(out, PageStatus{VA: va, Resident: d.resident[va.VPN()]})
	}
	return out, nil
}

func (d *fakeDriver) FetchPages(e *sgx.Enclave, pages []mmu.VAddr) error {
	if d.failNext != nil {
		err := d.failNext
		d.failNext = nil
		return err
	}
	if d.limit > 0 && d.residentCount()+len(pages) > d.limit {
		return ErrEPCPressure
	}
	for _, va := range pages {
		d.resident[va.VPN()] = true
		d.fetches = append(d.fetches, va)
	}
	return nil
}

func (d *fakeDriver) EvictPages(e *sgx.Enclave, pages []mmu.VAddr) error {
	for _, va := range pages {
		d.resident[va.VPN()] = false
		d.evicts = append(d.evicts, va)
	}
	return nil
}

func (d *fakeDriver) residentCount() int {
	n := 0
	for _, r := range d.resident {
		if r {
			n++
		}
	}
	return n
}

func (d *fakeDriver) Quota(e *sgx.Enclave) (int, int) { return d.limit, d.residentCount() }

func (d *fakeDriver) AugPages(e *sgx.Enclave, pages []mmu.VAddr, perms []mmu.Perms) ([]mmu.PFN, error) {
	pfns := make([]mmu.PFN, len(pages))
	for i, va := range pages {
		d.resident[va.VPN()] = true
		pfns[i] = mmu.PFN(1000 + va.VPN())
	}
	return pfns, nil
}

func (d *fakeDriver) Blobs() pagestore.PagingBackend { return fakeBackend{d} }

// fakeBackend is the fake driver's sealed-blob transport, keyed by VPN.
type fakeBackend struct{ d *fakeDriver }

func (f fakeBackend) Name() string { return "fake" }

func (f fakeBackend) Evict(enclaveID uint64, va mmu.VAddr, b pagestore.Blob) error {
	// Evicted ciphertext is caller-owned: copy before retaining.
	b.Ciphertext = append([]byte(nil), b.Ciphertext...)
	f.d.blobs[va.VPN()] = b
	return nil
}

func (f fakeBackend) Fetch(enclaveID uint64, va mmu.VAddr) (pagestore.Blob, error) {
	b, ok := f.d.blobs[va.VPN()]
	if !ok {
		return pagestore.Blob{}, pagestore.ErrNotFound
	}
	return b, nil
}

func (f fakeBackend) Drop(enclaveID uint64, va mmu.VAddr) error {
	delete(f.d.blobs, va.VPN())
	return nil
}

func (f fakeBackend) EvictBatch(enclaveID uint64, pages []pagestore.PageBlob) error {
	for _, pb := range pages {
		b := pb.Blob
		// Evicted ciphertext is caller-owned: copy before retaining.
		b.Ciphertext = append([]byte(nil), b.Ciphertext...)
		f.d.blobs[pb.VA.VPN()] = b
	}
	return nil
}

func (f fakeBackend) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	for i, va := range pages {
		b, ok := f.d.blobs[va.VPN()]
		if !ok {
			return pagestore.ErrNotFound
		}
		out[i] = b
	}
	return nil
}

func (d *fakeDriver) RestrictPerms(e *sgx.Enclave, va mmu.VAddr, perms mmu.Perms) (mmu.PFN, error) {
	return mmu.PFN(1000 + va.VPN()), nil
}

func (d *fakeDriver) TrimPage(e *sgx.Enclave, va mmu.VAddr) (mmu.PFN, error) {
	return mmu.PFN(1000 + va.VPN()), nil
}

func (d *fakeDriver) RemovePage(e *sgx.Enclave, va mmu.VAddr) error {
	d.resident[va.VPN()] = false
	return nil
}

var _ Driver = (*fakeDriver)(nil)

func newTestRuntime(limit int) (*Runtime, *fakeDriver) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	d := newFakeDriver(limit)
	r := NewRuntime(nil, d, clock, &costs)
	// A minimal enclave identity for tracking (no CPU needed for these
	// paths): an ELRANGE of pages 0–15 sizes the runtime's page records.
	e := &sgx.Enclave{Size: 16 * mmu.PageSize}
	r.Attach(e)
	return r, d
}

func pagesOf(vpns ...uint64) []mmu.VAddr {
	out := make([]mmu.VAddr, len(vpns))
	for i, v := range vpns {
		out[i] = mmu.PageOf(v)
	}
	return out
}

func TestManagePagesTracksResidence(t *testing.T) {
	r, d := newTestRuntime(0)
	d.resident[1] = true
	if err := r.ManagePages(pagesOf(1, 2), mmu.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if res, managed := r.PageResident(mmu.PageOf(1)); !res || !managed {
		t.Fatal("page 1 should be resident+managed")
	}
	if res, managed := r.PageResident(mmu.PageOf(2)); res || !managed {
		t.Fatal("page 2 should be non-resident+managed")
	}
	if _, managed := r.PageResident(mmu.PageOf(3)); managed {
		t.Fatal("page 3 should be unmanaged")
	}
	if r.ResidentManagedPages() != 1 {
		t.Fatalf("ResidentManagedPages = %d", r.ResidentManagedPages())
	}
}

func TestReleasePagesDropsTracking(t *testing.T) {
	r, _ := newTestRuntime(0)
	r.ManagePages(pagesOf(1), mmu.PermRW, false)
	if err := r.ReleasePages(pagesOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, managed := r.PageResident(mmu.PageOf(1)); managed {
		t.Fatal("released page still tracked")
	}
}

func TestFetchPagesEvictsUnderPressure(t *testing.T) {
	r, d := newTestRuntime(3)
	for v := uint64(1); v <= 3; v++ {
		d.resident[v] = true
	}
	r.Policy = NewRateLimitPolicy(0, 1<<30)
	if err := r.ManagePages(pagesOf(1, 2, 3, 4), mmu.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := r.fetchPages(pagesOf(4)); err != nil {
		t.Fatal(err)
	}
	if d.residentCount() > 3 {
		t.Fatalf("quota violated: %d resident", d.residentCount())
	}
	if res, _ := r.PageResident(mmu.PageOf(4)); !res {
		t.Fatal("page 4 not fetched")
	}
	if len(d.evicts) == 0 {
		t.Fatal("no eviction happened")
	}
	// FIFO: page 1 (managed first) must be the victim.
	if d.evicts[0].VPN() != 1 {
		t.Fatalf("victim = %d, want 1 (FIFO)", d.evicts[0].VPN())
	}
}

func TestPinnedPagesNeverPickedAsVictims(t *testing.T) {
	r, d := newTestRuntime(2)
	d.resident[1] = true
	d.resident[2] = true
	r.Policy = NewRateLimitPolicy(0, 1<<30)
	r.ManagePages(pagesOf(1), mmu.PermRW, true) // pinned
	r.ManagePages(pagesOf(2, 3), mmu.PermRW, false)
	if err := r.fetchPages(pagesOf(3)); err != nil {
		t.Fatal(err)
	}
	for _, v := range d.evicts {
		if v.VPN() == 1 {
			t.Fatal("pinned page evicted")
		}
	}
}

func TestEnsurePinnedResident(t *testing.T) {
	r, d := newTestRuntime(0)
	r.ManagePages(pagesOf(1, 2), mmu.PermRW, true)
	r.ManagePages(pagesOf(3), mmu.PermRW, false)
	if err := r.EnsurePinnedResident(); err != nil {
		t.Fatal(err)
	}
	if !d.resident[1] || !d.resident[2] {
		t.Fatal("pinned pages not fetched")
	}
	if d.resident[3] {
		t.Fatal("unpinned page fetched")
	}
}

// --- Policies ----------------------------------------------------------------

func TestRateLimitPolicyMath(t *testing.T) {
	r, _ := newTestRuntime(0)
	p := NewRateLimitPolicy(2, 3) // 3 burst + 2/progress
	r.Policy = p
	va := mmu.PageOf(1)
	for i := 0; i < 3; i++ {
		if _, err := p.PlanFetch(r, va); err != nil {
			t.Fatalf("fault %d rejected within burst: %v", i, err)
		}
	}
	if _, err := p.PlanFetch(r, va); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("fault beyond burst accepted: %v", err)
	}
	// Progress extends the budget.
	r.progress += 10 // 3 + 2*10 = 23 allowed
	for i := 0; i < 19; i++ {
		if err := p.OnOSFault(r, va); err != nil {
			t.Fatalf("fault %d rejected within extended budget: %v", i, err)
		}
	}
	if err := p.OnOSFault(r, va); !errors.Is(err, ErrRateLimited) {
		t.Fatal("budget not enforced after progress")
	}
	if p.Faults() != 24 {
		t.Fatalf("Faults = %d", p.Faults())
	}
}

func TestRateLimitEvictBatch(t *testing.T) {
	r, d := newTestRuntime(0)
	p := NewRateLimitPolicy(0, 1<<30)
	p.EvictBatch = 4
	r.Policy = p
	for v := uint64(1); v <= 6; v++ {
		d.resident[v] = true
	}
	r.ManagePages(pagesOf(1, 2, 3, 4, 5, 6), mmu.PermRW, false)
	victims := p.PickVictims(r, 1)
	if len(victims) != 4 {
		t.Fatalf("batch returned %d victims, want 4", len(victims))
	}
}

func TestPinAllPolicyRejectsEverything(t *testing.T) {
	r, _ := newTestRuntime(0)
	p := NewPinAllPolicy()
	if _, err := p.PlanFetch(r, mmu.PageOf(1)); err == nil {
		t.Fatal("pin-all planned a fetch")
	}
	if v := p.PickVictims(r, 5); v != nil {
		t.Fatal("pin-all returned victims")
	}
	if err := p.OnOSFault(r, mmu.PageOf(1)); err != nil {
		t.Fatal("pin-all must forward OS faults freely")
	}
}

func TestClusterPolicyPlansClosure(t *testing.T) {
	r, _ := newTestRuntime(0)
	reg := cluster.NewRegistry()
	cp := NewClusterPolicy(reg)
	r.Policy = cp
	r.ManagePages(pagesOf(1, 2, 3, 4), mmu.PermRW, false)
	id := reg.NewCluster(0)
	for _, v := range []uint64{1, 2, 3} {
		reg.AddPage(id, v)
	}
	fetch, err := cp.PlanFetch(r, mmu.PageOf(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(fetch) != 3 {
		t.Fatalf("fetch plan = %v", fetch)
	}
	// Unclustered managed page fetches alone.
	fetch, err = cp.PlanFetch(r, mmu.PageOf(4))
	if err != nil || len(fetch) != 1 {
		t.Fatalf("unclustered plan = %v %v", fetch, err)
	}
}

func TestClusterPolicyEvictsWholeClustersFIFO(t *testing.T) {
	r, d := newTestRuntime(0)
	reg := cluster.NewRegistry()
	cp := NewClusterPolicy(reg)
	r.Policy = cp
	r.ManagePages(pagesOf(1, 2, 3, 4), mmu.PermRW, false)
	a := reg.NewCluster(0)
	reg.AddPage(a, 1)
	reg.AddPage(a, 2)
	b := reg.NewCluster(0)
	reg.AddPage(b, 3)
	reg.AddPage(b, 4)
	// Fetch A then B (FIFO order a, b).
	for _, vpn := range []uint64{1, 3} {
		fetch, _ := cp.PlanFetch(r, mmu.PageOf(vpn))
		if err := r.fetchPages(fetch); err != nil {
			t.Fatal(err)
		}
	}
	_ = d
	victims := cp.PickVictims(r, 1)
	if len(victims) != 2 {
		t.Fatalf("victims = %v, want whole cluster", victims)
	}
	seen := map[uint64]bool{}
	for _, v := range victims {
		seen[v.VPN()] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("oldest cluster not evicted first: %v", victims)
	}
}

func TestClusterPolicyWithRateLimit(t *testing.T) {
	r, _ := newTestRuntime(0)
	reg := cluster.NewRegistry()
	cp := NewClusterPolicy(reg)
	cp.Limit = NewRateLimitPolicy(0, 1)
	r.Policy = cp
	r.ManagePages(pagesOf(1), mmu.PermRW, false)
	if _, err := cp.PlanFetch(r, mmu.PageOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.PlanFetch(r, mmu.PageOf(1)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("composed rate limit not enforced: %v", err)
	}
}

func TestMechString(t *testing.T) {
	if MechSGX1.String() != "SGX1" || MechSGX2.String() != "SGX2" {
		t.Fatal("mech names wrong")
	}
}

func TestFetchUnmanagedPageRejected(t *testing.T) {
	r, _ := newTestRuntime(0)
	if err := r.fetchPages(pagesOf(9)); err == nil {
		t.Fatal("fetch of unmanaged page accepted")
	}
}

func TestClusterPolicyFallbackEvictsWholeClusters(t *testing.T) {
	// Regression: victims chosen via the FIFO fallback (pages resident
	// since load, never fetched through the policy) must expand to whole
	// clusters — a partial cluster eviction would leak which page of the
	// cluster was kept.
	r, d := newTestRuntime(0)
	reg := cluster.NewRegistry()
	cp := NewClusterPolicy(reg)
	r.Policy = cp
	for v := uint64(1); v <= 4; v++ {
		d.resident[v] = true
	}
	r.ManagePages(pagesOf(1, 2, 3, 4), mmu.PermRW, false)
	a := reg.NewCluster(0)
	reg.AddPage(a, 1)
	reg.AddPage(a, 2)
	b := reg.NewCluster(0)
	reg.AddPage(b, 3)
	reg.AddPage(b, 4)
	// No fetch history: the cluster FIFO is empty; ask for one page.
	victims := cp.PickVictims(r, 1)
	if len(victims) != 2 {
		t.Fatalf("victims = %v, want one whole 2-page cluster", victims)
	}
	got := map[uint64]bool{victims[0].VPN(): true, victims[1].VPN(): true}
	if !(got[1] && got[2]) && !(got[3] && got[4]) {
		t.Fatalf("victims %v are not a whole cluster", victims)
	}
}

func TestRateLimitBudgetMonotoneInProgress(t *testing.T) {
	// Property: more reported progress never shrinks the fault budget.
	r, _ := newTestRuntime(0)
	for _, perProgress := range []float64{0.5, 1, 3} {
		p := NewRateLimitPolicy(perProgress, 2)
		allowed := func(progress uint64) int {
			q := *p // fresh fault counter
			r.progress = progress
			n := 0
			for q.admit(r, mmu.PageOf(1)) == nil {
				n++
				if n > 10000 {
					break
				}
			}
			return n
		}
		prev := -1
		for _, prog := range []uint64{0, 1, 5, 50, 500} {
			got := allowed(prog)
			if got < prev {
				t.Fatalf("perProgress=%v: budget shrank from %d to %d at progress %d",
					perProgress, prev, got, prog)
			}
			prev = got
		}
	}
	r.progress = 0
}
