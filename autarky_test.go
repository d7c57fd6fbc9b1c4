package autarky

import (
	"errors"
	"testing"

	"autarky/internal/core"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/trace"
)

func testImage(heapPages int) AppImage {
	return AppImage{
		Name:      "t",
		Libraries: []Library{{Name: "libt.so", Pages: 4}},
		HeapPages: heapPages,
	}
}

// counter reads one counter from a snapshot by its stable wire name.
func counter(t *testing.T, s MetricsSnapshot, name string) uint64 {
	t.Helper()
	v, ok := s.Named(name)
	if !ok {
		t.Fatalf("no counter named %q", name)
	}
	return v
}

func TestLegacyEnclaveRunsToCompletion(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(32), Config{})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	ran := false
	err = p.Run(func(ctx *Context) {
		ran = true
		for _, va := range p.Heap.PageVAs() {
			ctx.Store(va)
			ctx.Load(va)
		}
		for _, va := range p.Code["libt.so"].PageVAs() {
			ctx.Exec(va)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("app did not run")
	}
	if m.Cycles() == 0 {
		t.Fatal("no cycles charged")
	}
}

func TestSelfPagingEnclaveRunsWithoutFaults(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(32), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	err = p.Run(func(ctx *Context) {
		for _, va := range p.Heap.PageVAs() {
			ctx.Store(va)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := counter(t, p.Runtime.Metrics(), "runtime.handler_runs"); got != 0 {
		t.Fatalf("expected zero handler invocations without paging, got %d", got)
	}
	snap := m.Metrics()
	if got := snap.Counter(metrics.CntFaultNotPresent) + snap.Counter(metrics.CntFaultProtection) +
		snap.Counter(metrics.CntFaultSGX); got != 0 {
		t.Fatalf("expected zero enclave faults, got %d", got)
	}
}

func TestSelfPagingDemandPagingUnderQuota(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	// Image: 4 code + 64 heap + 8 stack = 76 pages; quota 40 forces paging.
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 10_000,
		QuotaPages:     40,
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	err = p.Run(func(ctx *Context) {
		// Two sweeps so evicted pages get re-faulted.
		for pass := 0; pass < 2; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
				ctx.Progress(1)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := p.Runtime.Metrics()
	if counter(t, st, "runtime.self_faults") == 0 {
		t.Fatal("expected self-paging faults under quota pressure")
	}
	if counter(t, st, "runtime.pages_evicted") == 0 {
		t.Fatal("expected runtime evictions under quota pressure")
	}
	if n := counter(t, st, "runtime.attacks_detected"); n != 0 {
		t.Fatalf("benign run flagged %d attacks", n)
	}
	if got := p.Proc.ResidentPages(); got > 40 {
		t.Fatalf("resident pages %d exceed quota 40", got)
	}
}

func TestPageDataSurvivesEviction(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 100_000,
		QuotaPages:     40,
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	err = p.Run(func(ctx *Context) {
		heap := p.Heap.PageVAs()
		for i, va := range heap {
			ctx.Write(va, []byte{byte(i), byte(i >> 8), 0xa5})
		}
		// Sweep again to force evict+reload, then verify contents.
		for i, va := range heap {
			buf := make([]byte, 3)
			ctx.Read(va, buf)
			if buf[0] != byte(i) || buf[1] != byte(i>>8) || buf[2] != 0xa5 {
				t.Errorf("page %d content corrupted after paging: %v", i, buf)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter(t, p.Runtime.Metrics(), "runtime.pages_evicted") == 0 {
		t.Fatal("test did not exercise eviction")
	}
}

func TestVanillaSilentResumeWorks(t *testing.T) {
	// The controlled channel's enabling property on vanilla SGX: the OS can
	// unmap a page, capture the fault, remap, and silently resume — the
	// enclave cannot tell.
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(8), Config{})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	target := p.Heap.Page(3)
	seen := &trace.Log{}
	m.Kernel.Observed = seen
	err = p.Run(func(ctx *Context) {
		ctx.Store(target)
		m.Kernel.UnmapPage(target) // adversary acts "concurrently"
		ctx.Load(target)           // faults; kernel restores; silent resume
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, ev := range seen.Only(trace.KindFault).Events {
		if ev.Addr == target {
			found = true
		}
	}
	if !found {
		t.Fatal("OS did not observe the induced fault on vanilla SGX")
	}
}

func TestAutarkyDetectsInducedFault(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(8), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	target := p.Heap.Page(3)
	err = p.Run(func(ctx *Context) {
		ctx.Store(target)
		m.Kernel.UnmapPage(target)
		ctx.Load(target) // must be detected as an attack
		t.Error("access after induced fault should not complete")
	})
	var term *TerminationError
	if !errors.As(err, &term) {
		t.Fatalf("expected TerminationError, got %v", err)
	}
	if term.Reason != sgx.TerminateAttackDetected {
		t.Fatalf("expected attack detection, got %v", term.Reason)
	}
	if n := counter(t, p.Runtime.Metrics(), "runtime.attacks_detected"); n != 1 {
		t.Fatalf("runtime.attacks_detected = %d, want 1", n)
	}
}

func TestAutarkyMasksFaultAddress(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 100_000,
		QuotaPages:     40,
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	seen := &trace.Log{}
	m.Kernel.Observed = seen
	err = p.Run(func(ctx *Context) {
		for pass := 0; pass < 2; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	faults := seen.Only(trace.KindFault)
	if faults.Len() == 0 {
		t.Fatal("expected faults under quota pressure")
	}
	base := p.Enclave().Base
	for _, ev := range faults.Events {
		if ev.Addr != base {
			t.Fatalf("OS observed fault at %s; Autarky must mask to enclave base %s", ev.Addr, base)
		}
		if ev.Type != mmu.AccessRead {
			t.Fatalf("OS observed access type %s; Autarky must mask to read", ev.Type)
		}
	}
}

func TestRateLimitTerminatesExcessiveFaults(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 5, // tiny budget, no progress reported
		QuotaPages:     40,
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	err = p.Run(func(ctx *Context) {
		for pass := 0; pass < 3; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
	var term *TerminationError
	if !errors.As(err, &term) {
		t.Fatalf("expected rate-limit termination, got %v", err)
	}
	if term.Reason != sgx.TerminateRateLimit {
		t.Fatalf("reason = %v, want rate-limit", term.Reason)
	}
}

func TestSGX2SoftwarePagingRoundTrip(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 100_000,
		QuotaPages:     40,
		Mech:           core.MechSGX2,
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	err = p.Run(func(ctx *Context) {
		heap := p.Heap.PageVAs()
		for i, va := range heap {
			ctx.Write(va, []byte{0x5a, byte(i)})
		}
		for i, va := range heap {
			buf := make([]byte, 2)
			ctx.Read(va, buf)
			if buf[0] != 0x5a || buf[1] != byte(i) {
				t.Errorf("SGX2 page %d corrupted: %v", i, buf)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter(t, p.Runtime.Metrics(), "runtime.pages_evicted") == 0 {
		t.Fatal("SGX2 path did not exercise eviction")
	}
}

func TestClusterPolicyFetchesWholeCluster(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:       true,
		Policy:           PolicyClusters,
		QuotaPages:       40,
		DataClusterPages: 8,
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	err = p.Run(func(ctx *Context) {
		pages, err := p.Alloc.AllocPages(48)
		if err != nil {
			t.Fatalf("AllocPages: %v", err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, va := range pages {
				ctx.Store(va)
			}
		}
		// Invariant must hold at every point; check at the end of the run.
		if err := p.Reg.CheckInvariant(func(vpn uint64) bool {
			resident, _ := p.Runtime.PageResident(mmu.PageOf(vpn))
			return resident
		}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := p.Runtime.Metrics()
	faults, fetched := counter(t, st, "runtime.self_faults"), counter(t, st, "runtime.pages_fetched")
	if faults == 0 {
		t.Fatal("expected cluster faults under quota pressure")
	}
	// Whole clusters are fetched: fetched pages must exceed faults.
	if fetched < 2*faults {
		t.Fatalf("fetched %d pages for %d faults; clusters should amplify", fetched, faults)
	}
}
