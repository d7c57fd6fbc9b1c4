package core_test

// External-package tests exercising the runtime's in-enclave paths (the
// fault handler, the Context, the SGXv2 software paging) against the real
// kernel/SGX stack. The in-package tests cover bookkeeping and policies via
// a fake driver; these cover the full dance.

import (
	"errors"
	"testing"

	"autarky/internal/attack"
	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

func newStack(t *testing.T, img libos.AppImage, cfg libos.Config) (*libos.Process, *hostos.Kernel) {
	t.Helper()
	k := hostos.NewHost(sim.NewClock(), sim.DefaultCosts(), hostos.DefaultGeometry(4096), []byte("core-int"))
	p, err := libos.Load(k, img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, k
}

func img(heap int) libos.AppImage {
	return libos.AppImage{
		Name:      "core-int",
		Libraries: []libos.Library{{Name: "libci.so", Pages: 2}},
		HeapPages: heap,
	}
}

func TestHandlerForwardsOSManagedFaults(t *testing.T) {
	p, k := newStack(t, img(64), libos.Config{
		SelfPaging:     true,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     40,
	})
	err := p.Run(func(ctx *core.Context) {
		heap := p.Heap.PageVAs()
		if err := ctx.ReleasePages(heap); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, va := range heap {
				ctx.Store(va)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Runtime.Metrics()
	if st.Counter(metrics.CntForwardedFaults) == 0 {
		t.Fatal("no forwarded faults")
	}
	if n := st.Counter(metrics.CntSelfFaults); n != 0 {
		t.Fatalf("%d self faults on OS-managed pages", n)
	}
	_ = k
}

func TestHandlerSelfPagesManagedFaults(t *testing.T) {
	p, _ := newStack(t, img(64), libos.Config{
		SelfPaging:     true,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     40,
	})
	err := p.Run(func(ctx *core.Context) {
		for pass := 0; pass < 2; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Runtime.Metrics()
	faults, runs := st.Counter(metrics.CntSelfFaults), st.Counter(metrics.CntHandlerRuns)
	if faults == 0 || st.Counter(metrics.CntPagesFetched) == 0 || st.Counter(metrics.CntPagesEvicted) == 0 {
		t.Fatalf("self-paging not exercised: %+v", st.Counters)
	}
	if runs < faults {
		t.Fatalf("handler invocations %d < faults %d", runs, faults)
	}
}

func TestContextAccessorsAndProgress(t *testing.T) {
	p, _ := newStack(t, img(8), libos.Config{SelfPaging: true, Policy: libos.PolicyPinAll})
	err := p.Run(func(ctx *core.Context) {
		if ctx.Runtime() != p.Runtime {
			t.Error("Runtime() accessor wrong")
		}
		va := p.Heap.Page(0)
		ctx.Store(va)
		ctx.Load(va)
		ctx.Exec(p.Code["libci.so"].Page(0))
		ctx.Write(va, []byte{1, 2, 3})
		buf := make([]byte, 3)
		ctx.Read(va, buf)
		if buf[0] != 1 || buf[2] != 3 {
			t.Errorf("read back %v", buf)
		}
		ctx.Progress(7)
		ctx.Progress(3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Runtime.Progress() != 10 {
		t.Fatalf("progress = %d", p.Runtime.Progress())
	}
}

func TestSGX2EvictFetchPreservesDataEndToEnd(t *testing.T) {
	p, _ := newStack(t, img(64), libos.Config{
		SelfPaging:     true,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     36,
		Mech:           core.MechSGX2,
	})
	err := p.Run(func(ctx *core.Context) {
		heap := p.Heap.PageVAs()
		for i, va := range heap {
			ctx.Write(va, []byte{0xd0, byte(i), byte(i >> 4)})
		}
		for i, va := range heap {
			buf := make([]byte, 3)
			ctx.Read(va, buf)
			if buf[0] != 0xd0 || buf[1] != byte(i) || buf[2] != byte(i>>4) {
				t.Errorf("page %d corrupted: %v", i, buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Runtime.Metrics().Counter(metrics.CntPagesEvicted) == 0 {
		t.Fatal("SGX2 eviction not exercised")
	}
}

func TestSGX2BlobTamperTerminates(t *testing.T) {
	p, k := newStack(t, img(64), libos.Config{
		SelfPaging:     true,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     36,
		Mech:           core.MechSGX2,
	})
	err := p.Run(func(ctx *core.Context) {
		heap := p.Heap.PageVAs()
		// Force evictions, then corrupt whatever blob the OS holds for the
		// first page the runtime software-evicted.
		for pass := 0; pass < 2; pass++ {
			for _, va := range heap {
				ctx.Store(va)
			}
		}
		corrupted := false
		for _, va := range heap {
			if resident, _ := p.Runtime.PageResident(va); !resident {
				if k.Store.Corrupt(p.Enclave().ID, va) {
					corrupted = true
					// Touch it: the fetch must fail authentication.
					ctx.Load(va)
					t.Error("access to tampered page completed")
				}
				break
			}
		}
		if !corrupted {
			t.Error("no evicted page found to corrupt")
		}
	})
	var term *sgx.TerminationError
	if !errors.As(err, &term) {
		t.Fatalf("tampered blob did not terminate: %v", err)
	}
}

// TestSGX2ReplayedBlobTerminates covers the self-sealed SGXv2 blob format
// end to end: replaying a stale blob for a software-evicted page must fail
// the runtime's freshness check and terminate the enclave with an integrity
// violation (the refined ErrStaleVersion diagnosis is advisory and stays
// below the termination boundary).
func TestSGX2ReplayedBlobTerminates(t *testing.T) {
	k := hostos.NewHost(sim.NewClock(), sim.DefaultCosts(), hostos.DefaultGeometry(4096), []byte("core-int"))
	rollback := attack.NewRollback(k.Backend())
	if err := k.SetBackend(rollback); err != nil {
		t.Fatal(err)
	}
	p, err := libos.Load(k, img(64), libos.Config{
		SelfPaging:     true,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     36,
		Mech:           core.MechSGX2,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(func(ctx *core.Context) {
		heap := p.Heap.PageVAs()
		// Three sweeps so some page is evicted, re-fetched and evicted again,
		// leaving two archived blob versions to replay between.
		for pass := 0; pass < 3; pass++ {
			for _, va := range heap {
				ctx.Store(va)
			}
		}
		for _, va := range heap {
			if resident, _ := p.Runtime.PageResident(va); !resident {
				if rollback.Replay(p.Enclave().ID, va) {
					ctx.Load(va)
					t.Error("access to replayed page completed")
					return
				}
			}
		}
		t.Error("no evicted page had history to replay")
	})
	var term *sgx.TerminationError
	if !errors.As(err, &term) {
		t.Fatalf("replayed blob did not terminate: %v", err)
	}
	if term.Reason != sgx.TerminateIntegrity {
		t.Fatalf("termination reason %v, want integrity-violation", term.Reason)
	}
	if !errors.Is(err, pagestore.ErrIntegrity) {
		t.Fatalf("termination %v does not wrap pagestore.ErrIntegrity", err)
	}
}

func TestSpuriousReEntryIsHarmless(t *testing.T) {
	// An OS may EENTER with no pending exception (e.g. after a timer AEX);
	// the dispatcher must not treat it as a fault.
	p, k := newStack(t, img(8), libos.Config{SelfPaging: true, Policy: libos.PolicyPinAll})
	if err := p.Run(func(ctx *core.Context) { ctx.Store(p.Heap.Page(0)) }); err != nil {
		t.Fatal(err)
	}
	// Manual spurious entry from the OS.
	if err := k.CPU.EEnter(p.Enclave(), p.Proc.TCS); err != nil {
		t.Fatalf("spurious EENTER: %v", err)
	}
	if p.Runtime.Metrics().Counter(metrics.CntAttacksDetected) != 0 {
		t.Fatal("spurious entry flagged as attack")
	}
}

func TestManagePagesCountMismatchCaught(t *testing.T) {
	p, _ := newStack(t, img(8), libos.Config{SelfPaging: true, Policy: libos.PolicyPinAll})
	// Managing a page outside the enclave must error via the driver.
	err := p.Runtime.ManagePages([]mmu.VAddr{0xdead000}, mmu.PermRW, false)
	if err == nil {
		t.Fatal("foreign page managed")
	}
}

func TestRuntimeMetricsAccounting(t *testing.T) {
	p, _ := newStack(t, img(64), libos.Config{
		SelfPaging:     true,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     40,
	})
	err := p.Run(func(ctx *core.Context) {
		for pass := 0; pass < 3; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Runtime.Metrics()
	// Fetches track self-faults one-to-one for the demand policy, plus the
	// handful of load-time fetches that re-pinned spilled pages.
	fetched, faults := st.Counter(metrics.CntPagesFetched), st.Counter(metrics.CntSelfFaults)
	if fetched < faults || fetched > faults+16 {
		t.Fatalf("fetched %d vs self faults %d under demand paging", fetched, faults)
	}
	if got := p.Runtime.ResidentManagedPages(); got == 0 {
		t.Fatal("no resident managed pages after run")
	}
}

func TestBalloonUpcallReleasesPages(t *testing.T) {
	p, k := newStack(t, img(48), libos.Config{
		SelfPaging:     true,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 30,
	})
	if err := p.Run(func(ctx *core.Context) {
		for _, va := range p.Heap.PageVAs() {
			ctx.Store(va)
		}
	}); err != nil {
		t.Fatal(err)
	}
	before := p.Proc.ResidentPages()
	released, err := p.Runtime.BalloonRequest(10)
	if err != nil {
		t.Fatal(err)
	}
	if released == 0 {
		t.Fatal("balloon released nothing")
	}
	if got := p.Proc.ResidentPages(); got != before-released {
		t.Fatalf("resident %d, want %d", got, before-released)
	}
	if got := p.Runtime.Metrics().Counter(metrics.CntBalloonEvictions); got != uint64(released) {
		t.Fatalf("balloon.evictions = %d, want %d", got, released)
	}
	// The released pages page back in on next use, data intact, no attack.
	if err := p.Run(func(ctx *core.Context) {
		for _, va := range p.Heap.PageVAs() {
			ctx.Load(va)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if p.Runtime.Metrics().Counter(metrics.CntAttacksDetected) != 0 {
		t.Fatal("balloon-evicted pages flagged as attack on re-access")
	}
	_ = k
}

func TestBalloonRespectsPins(t *testing.T) {
	p, _ := newStack(t, img(16), libos.Config{SelfPaging: true, Policy: libos.PolicyPinAll})
	if err := p.Run(func(ctx *core.Context) { ctx.Store(p.Heap.Page(0)) }); err != nil {
		t.Fatal(err)
	}
	// Everything pinned: the enclave declines.
	released, err := p.Runtime.BalloonRequest(8)
	if err != nil {
		t.Fatal(err)
	}
	if released != 0 {
		t.Fatalf("balloon evicted %d pinned pages", released)
	}
}

func TestBalloonEvictsWholeClusters(t *testing.T) {
	p, _ := newStack(t, img(40), libos.Config{
		SelfPaging:       true,
		Policy:           libos.PolicyClusters,
		DataClusterPages: 8,
	})
	if err := p.Run(func(ctx *core.Context) {
		pages, err := p.Alloc.AllocPages(24)
		if err != nil {
			t.Fatal(err)
		}
		for _, va := range pages {
			ctx.Store(va)
		}
	}); err != nil {
		t.Fatal(err)
	}
	released, err := p.Runtime.BalloonRequest(3)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster policy rounds the request up to a whole 8-page cluster:
	// partial clusters would leak.
	if released != 8 {
		t.Fatalf("released %d, want a whole 8-page cluster", released)
	}
	if err := p.Reg.CheckInvariant(func(vpn uint64) bool {
		resident, _ := p.Runtime.PageResident(mmu.PageOf(vpn))
		return resident
	}); err != nil {
		t.Fatal(err)
	}
}
