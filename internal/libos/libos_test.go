package libos

import (
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// newKernel builds a machine with epcFrames of EPC. Every machine shares
// one root secret, so envelopes sealed on one authenticate on another —
// the cross-machine handoff checkpoints and migrations exist for.
func newKernel(epcFrames int) *hostos.Kernel {
	return hostos.NewHost(sim.NewClock(), sim.DefaultCosts(), hostos.DefaultGeometry(epcFrames), []byte("libos-test"))
}

func load(t *testing.T, img AppImage, cfg Config) *Process {
	t.Helper()
	p, err := Load(newKernel(2048), img, cfg)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return p
}

func TestLayoutIsContiguousAndDisjoint(t *testing.T) {
	img := AppImage{
		Name: "layout",
		Libraries: []Library{
			{Name: "a.so", Pages: 3},
			{Name: "b.so", Pages: 2},
		},
		DataPages:  4,
		HeapPages:  8,
		StackPages: 2,
	}
	p := load(t, img, Config{})
	a, b := p.Code["a.so"], p.Code["b.so"]
	if a.Base != DefaultBase || a.Pages != 3 {
		t.Fatalf("a region: %+v", a)
	}
	if b.Base != a.End() {
		t.Fatalf("b not after a: %+v %+v", a, b)
	}
	if p.Data.Base != b.End() || p.Heap.Base != p.Data.End() || p.Stack.Base != p.Heap.End() {
		t.Fatal("regions not contiguous")
	}
	total := 3 + 2 + 4 + 8 + 2
	if got := p.Enclave().Size; got != uint64(total)*mmu.PageSize {
		t.Fatalf("enclave size %d", got)
	}
}

// TestLoadedPagesCountsTheLoad: LoadedPages is the number of pages the
// loader adds, with the 8-page default stack and without the reserve.
func TestLoadedPagesCountsTheLoad(t *testing.T) {
	img := AppImage{
		Name:         "count",
		Libraries:    []Library{{Name: "a.so", Pages: 3}, {Name: "b.so", Funcs: []Function{{Name: "f", Pages: 2}}}},
		DataPages:    4,
		HeapPages:    8,
		ReservePages: 16,
	}
	if got, want := img.LoadedPages(), 3+2+4+8+8; got != want {
		t.Fatalf("LoadedPages = %d, want %d", got, want)
	}
	p := load(t, img, Config{Mech: core.MechSGX2})
	if got := len(p.Proc.PageVAs()); got != img.LoadedPages() {
		t.Fatalf("loader added %d pages, LoadedPages says %d", got, img.LoadedPages())
	}
}

func TestCodePermissionsAreRX(t *testing.T) {
	p := load(t, AppImage{
		Name:      "perm",
		Libraries: []Library{{Name: "a.so", Pages: 1}},
		HeapPages: 1,
	}, Config{})
	if p.Code["a.so"].Perms != mmu.PermRX {
		t.Fatal("code not RX")
	}
	if p.Heap.Perms != mmu.PermRW {
		t.Fatal("heap not RW")
	}
}

func TestMeasurementStableAcrossLoads(t *testing.T) {
	img := AppImage{
		Name:      "m",
		Libraries: []Library{{Name: "a.so", Pages: 2}},
		HeapPages: 4,
	}
	p1 := load(t, img, Config{SelfPaging: true})
	p2 := load(t, img, Config{SelfPaging: true})
	if p1.Enclave().Measurement() != p2.Enclave().Measurement() {
		t.Fatal("identical images measured differently")
	}
	p3 := load(t, img, Config{SelfPaging: false})
	if p1.Enclave().Measurement() == p3.Enclave().Measurement() {
		t.Fatal("self-paging attribute not measured")
	}
}

func TestCodeClustersPerLibraryWithUses(t *testing.T) {
	img := AppImage{
		Name: "clusters",
		Libraries: []Library{
			{Name: "libc.so", Pages: 2},
			{Name: "a.so", Pages: 2, Uses: []string{"libc.so"}},
			{Name: "b.so", Pages: 2, Uses: []string{"libc.so"}},
		},
		HeapPages: 4,
	}
	p := load(t, img, Config{SelfPaging: true, CodeClusters: true, Policy: PolicyClusters})
	// a.so's cluster includes libc pages; likewise b.so — so the closure of
	// an a.so page includes b.so pages (transitively through libc).
	aPage := p.Code["a.so"].Page(0).VPN()
	closure := p.Reg.Closure(aPage)
	want := map[uint64]bool{}
	for _, lib := range []string{"libc.so", "a.so", "b.so"} {
		for _, va := range p.Code[lib].PageVAs() {
			want[va.VPN()] = true
		}
	}
	if len(closure) != len(want) {
		t.Fatalf("closure %v, want all code pages of the three libraries", closure)
	}
	for _, vpn := range closure {
		if !want[vpn] {
			t.Fatalf("closure contains unexpected page %#x", vpn)
		}
	}
}

func TestFunctionGranularityClusters(t *testing.T) {
	img := AppImage{
		Name: "funcs",
		Libraries: []Library{{
			Name: "f.so",
			Funcs: []Function{
				{Name: "f1", Pages: 2},
				{Name: "f2", Pages: 1},
			},
		}},
		HeapPages: 4,
	}
	p := load(t, img, Config{SelfPaging: true, CodeClusters: true, Policy: PolicyClusters})
	r := p.Code["f.so"]
	if r.Pages != 3 {
		t.Fatalf("region pages = %d", r.Pages)
	}
	// f1's pages cluster together, f2 separately.
	c1 := p.Reg.Closure(r.Page(0).VPN())
	if len(c1) != 2 {
		t.Fatalf("f1 closure = %v", c1)
	}
	c2 := p.Reg.Closure(r.Page(2).VPN())
	if len(c2) != 1 {
		t.Fatalf("f2 closure = %v", c2)
	}
}

func TestUnknownUsesRejected(t *testing.T) {
	_, err := Load(newKernel(2048), AppImage{
		Name:      "bad",
		Libraries: []Library{{Name: "a.so", Pages: 1, Uses: []string{"nope.so"}}},
		HeapPages: 1,
	}, Config{SelfPaging: true, CodeClusters: true, Policy: PolicyClusters})
	if err == nil {
		t.Fatal("unknown Uses accepted")
	}
}

func TestPinnedPagesResidentAfterQuotaLoad(t *testing.T) {
	img := AppImage{
		Name:      "spill",
		Libraries: []Library{{Name: "a.so", Pages: 4}},
		HeapPages: 48,
	}
	// Quota forces spill during load; pinned (code+stack) must be fetched
	// back before the enclave runs.
	p := load(t, img, Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     24,
	})
	for _, va := range p.Code["a.so"].PageVAs() {
		if resident, managed := p.Runtime.PageResident(va); !resident || !managed {
			t.Fatalf("code page %s not pinned-resident after load", va)
		}
	}
	for _, va := range p.Stack.PageVAs() {
		if resident, _ := p.Runtime.PageResident(va); !resident {
			t.Fatalf("stack page %s not resident after load", va)
		}
	}
}

// --- Allocator ---------------------------------------------------------------

func allocProcess(t *testing.T, heapPages, clusterSize int) *Process {
	return load(t, AppImage{
		Name:      "alloc",
		Libraries: []Library{{Name: "a.so", Pages: 1}},
		HeapPages: heapPages,
	}, Config{
		SelfPaging:       true,
		Policy:           PolicyClusters,
		DataClusterPages: clusterSize,
	})
}

func TestAllocatorBumpAndReuse(t *testing.T) {
	p := allocProcess(t, 8, 0)
	pages, err := p.Alloc.AllocPages(3)
	if err != nil || len(pages) != 3 {
		t.Fatalf("AllocPages: %v %v", pages, err)
	}
	if p.Alloc.Allocated() != 3 {
		t.Fatalf("Allocated = %d", p.Alloc.Allocated())
	}
	if err := p.Alloc.FreePages(pages[:1]); err != nil {
		t.Fatal(err)
	}
	again, err := p.Alloc.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != pages[0] {
		t.Fatalf("freed page not reused: %s vs %s", again[0], pages[0])
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	p := allocProcess(t, 4, 0)
	if _, err := p.Alloc.AllocPages(5); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if _, err := p.Alloc.AllocPages(4); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc.AllocPages(1); err == nil {
		t.Fatal("allocation from empty heap accepted")
	}
}

func TestAllocatorDoubleFreeRejected(t *testing.T) {
	p := allocProcess(t, 4, 0)
	pages, _ := p.Alloc.AllocPages(1)
	if err := p.Alloc.FreePages(pages); err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc.FreePages(pages); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestAutomaticDataClustering(t *testing.T) {
	p := allocProcess(t, 32, 4)
	pages, err := p.Alloc.AllocPages(10)
	if err != nil {
		t.Fatal(err)
	}
	// Pages fill clusters of 4 eagerly: pages 0-3 share one, 4-7 the next.
	c0, ok := p.Alloc.PageCluster(pages[0])
	if !ok {
		t.Fatal("page 0 unclustered")
	}
	for i := 1; i < 4; i++ {
		if c, _ := p.Alloc.PageCluster(pages[i]); c != c0 {
			t.Fatalf("page %d in cluster %d, want %d", i, c, c0)
		}
	}
	c4, _ := p.Alloc.PageCluster(pages[4])
	if c4 == c0 {
		t.Fatal("cluster not rotated at capacity")
	}
	if cl, _ := p.Reg.Cluster(c0); cl.Len() != 4 {
		t.Fatalf("cluster len = %d", cl.Len())
	}
}

func TestClusterMergeAfterFrees(t *testing.T) {
	p := allocProcess(t, 64, 8)
	pages, err := p.Alloc.AllocPages(32)
	if err != nil {
		t.Fatal(err)
	}
	// Free most pages of the first two clusters, leaving them sparse.
	var toFree []mmu.VAddr
	toFree = append(toFree, pages[0:6]...)  // cluster 1: 2 left
	toFree = append(toFree, pages[8:14]...) // cluster 2: 2 left
	if err := p.Alloc.FreePages(toFree); err != nil {
		t.Fatal(err)
	}
	// The two sparse clusters should have merged: the 4 surviving pages
	// share one cluster.
	survivors := []mmu.VAddr{pages[6], pages[7], pages[14], pages[15]}
	first, ok := p.Alloc.PageCluster(survivors[0])
	if !ok {
		t.Fatal("survivor unclustered")
	}
	for _, va := range survivors[1:] {
		if c, _ := p.Alloc.PageCluster(va); c != first {
			t.Fatalf("survivors split across clusters %d vs %d", c, first)
		}
	}
}

func TestRunExecutesApp(t *testing.T) {
	p := allocProcess(t, 8, 0)
	ran := false
	err := p.Run(func(ctx *core.Context) {
		ran = true
		ctx.Store(p.Heap.Page(0))
	})
	if err != nil || !ran {
		t.Fatalf("Run: %v ran=%v", err, ran)
	}
}

func TestPolicyKindStrings(t *testing.T) {
	for _, pk := range []PolicyKind{PolicyPinAll, PolicyRateLimit, PolicyClusters, PolicyORAM} {
		if pk.String() == "" {
			t.Errorf("policy %d unnamed", pk)
		}
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{Name: "x", Base: 0x1000, Pages: 2, Perms: mmu.PermRW}
	if r.End() != 0x3000 {
		t.Fatalf("End = %s", r.End())
	}
	if !r.Contains(0x1fff) || r.Contains(0x3000) {
		t.Fatal("Contains wrong")
	}
	if len(r.PageVAs()) != 2 {
		t.Fatal("PageVAs wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Page out of range did not panic")
		}
	}()
	r.Page(2)
}

func TestSynthesizedCodeDeterministic(t *testing.T) {
	a := synthesizeCode("lib.so", 0)
	b := synthesizeCode("lib.so", 0)
	c := synthesizeCode("lib.so", 1)
	if string(a) != string(b) {
		t.Fatal("code synthesis not deterministic")
	}
	if string(a) == string(c) {
		t.Fatal("pages identical across indices")
	}
}

func TestExtendHeapSGX2(t *testing.T) {
	p := load(t, AppImage{
		Name:         "grow",
		Libraries:    []Library{{Name: "a.so", Pages: 2}},
		HeapPages:    8,
		ReservePages: 16,
	}, Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		Mech:           core.MechSGX2,
	})
	err := p.Run(func(ctx *core.Context) {
		fresh, err := p.ExtendHeap(ctx, 6)
		if err != nil {
			t.Fatalf("ExtendHeap: %v", err)
		}
		if len(fresh) != 6 || p.GrownPages() != 6 {
			t.Fatalf("grew %d/%d", len(fresh), p.GrownPages())
		}
		// The grown pages are usable immediately and keep data.
		for i, va := range fresh {
			ctx.Write(va, []byte{0xee, byte(i)})
		}
		for i, va := range fresh {
			buf := make([]byte, 2)
			ctx.Read(va, buf)
			if buf[0] != 0xee || buf[1] != byte(i) {
				t.Errorf("grown page %d corrupted: %v", i, buf)
			}
		}
		// Reserve exhaustion is detected.
		if _, err := p.ExtendHeap(ctx, 11); err == nil {
			t.Error("reserve over-extension accepted")
		}
		// The grown pages are enclave-managed.
		if resident, managed := p.Runtime.PageResident(fresh[0]); !resident || !managed {
			t.Error("grown page not managed+resident")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtendHeapRequiresReserveAndEnclaveMode(t *testing.T) {
	p := load(t, AppImage{
		Name:      "nogrow",
		Libraries: []Library{{Name: "a.so", Pages: 1}},
		HeapPages: 4,
	}, Config{SelfPaging: true, Policy: PolicyPinAll, Mech: core.MechSGX2})
	err := p.Run(func(ctx *core.Context) {
		if _, err := p.ExtendHeap(ctx, 1); err == nil {
			t.Error("growth without reserve accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Outside enclave execution: rejected.
	p2 := load(t, AppImage{
		Name:         "nogrow2",
		Libraries:    []Library{{Name: "a.so", Pages: 1}},
		HeapPages:    4,
		ReservePages: 4,
	}, Config{SelfPaging: true, Policy: PolicyPinAll, Mech: core.MechSGX2})
	if _, err := p2.ExtendHeap(nil, 1); err == nil {
		t.Fatal("host-mode growth accepted")
	}
}
