package autarky

import (
	"errors"
	"testing"

	"autarky/internal/core"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
)

// Additional end-to-end integration tests across subsystem boundaries.

func TestWholeEnclaveSuspendResume(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(24), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	// First run: write recognizable data.
	err = p.Run(func(ctx *Context) {
		for i, va := range p.Heap.PageVAs() {
			ctx.Write(va, []byte{0xc0, byte(i)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kernel swaps the whole enclave out (the §5.2.1 contract's only way to
	// reclaim pinned pages) and back in.
	n, err := m.Kernel.SuspendEnclave(p.Proc)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("suspend evicted nothing")
	}
	if err := m.Kernel.ResumeEnclave(p.Proc); err != nil {
		t.Fatal(err)
	}
	// Second run: all data intact and no attack detection (the restore
	// honoured the contract).
	err = p.Run(func(ctx *Context) {
		for i, va := range p.Heap.PageVAs() {
			buf := make([]byte, 2)
			ctx.Read(va, buf)
			if buf[0] != 0xc0 || buf[1] != byte(i) {
				t.Errorf("page %d corrupted across whole-enclave swap: %v", i, buf)
			}
		}
	})
	if err != nil {
		t.Fatalf("run after resume: %v", err)
	}
	if counter(t, p.Runtime.Metrics(), "runtime.attacks_detected") != 0 {
		t.Fatal("contract-honouring swap was flagged as an attack")
	}
}

func TestSuspendWithoutResumeIsDetected(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(8), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(func(ctx *Context) { ctx.Store(p.Heap.Page(0)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kernel.SuspendEnclave(p.Proc); err != nil {
		t.Fatal(err)
	}
	// The OS "forgets" to restore and runs the enclave anyway. The kernel's
	// own API refuses the ordering outright...
	err = p.Run(func(ctx *Context) {
		t.Error("kernel entered a suspended enclave")
	})
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("run while suspended: %v, want ErrSuspended", err)
	}
	// ...so a hostile OS bypasses it and enters the enclave directly: the
	// first access to a pinned page is an induced fault, and the trusted
	// runtime detects the contract violation on its own.
	p.Runtime.App = func(ctx *Context) {
		ctx.Load(p.Heap.Page(0))
		t.Error("access succeeded on a swapped-out pinned page")
	}
	err = m.Kernel.CPU.EEnter(p.Proc.E, p.Proc.TCS)
	var term *TerminationError
	if !errors.As(err, &term) || term.Reason != sgx.TerminateAttackDetected {
		t.Fatalf("contract violation not detected: %v", err)
	}
}

func TestTwoEnclavesIsolatedPaging(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	load := func(name string) *Proc {
		p, err := m.Spawn(AppImage{
			Name:      name,
			Libraries: []Library{{Name: "lib" + name + ".so", Pages: 2}},
			HeapPages: 32,
		}, Config{
			SelfPaging:     true,
			Policy:         PolicyRateLimit,
			RateLimitBurst: 1 << 30,
			QuotaPages:     24,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := load("a"), load("b")
	if a.Enclave().ID == b.Enclave().ID {
		t.Fatal("enclave IDs collide")
	}
	fill := func(p *Proc, tag byte) {
		if err := p.Run(func(ctx *Context) {
			for i, va := range p.Heap.PageVAs() {
				ctx.Write(va, []byte{tag, byte(i)})
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	verify := func(p *Proc, tag byte) {
		if err := p.Run(func(ctx *Context) {
			for i, va := range p.Heap.PageVAs() {
				buf := make([]byte, 2)
				ctx.Read(va, buf)
				if buf[0] != tag || buf[1] != byte(i) {
					t.Errorf("%s page %d corrupted: %v", p.Image.Name, i, buf)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave so both enclaves page against the shared EPC and store.
	fill(a, 0xaa)
	fill(b, 0xbb)
	verify(a, 0xaa)
	verify(b, 0xbb)
	if counter(t, a.Runtime.Metrics(), "runtime.pages_evicted") == 0 ||
		counter(t, b.Runtime.Metrics(), "runtime.pages_evicted") == 0 {
		t.Fatal("test did not exercise concurrent paging")
	}
}

func TestCrossEnclaveBlobConfusionRejected(t *testing.T) {
	// Sealed pages of one enclave must not restore into another, even at
	// the same virtual address: the OS swaps the blobs in its store.
	m := NewMachine(WithEPCFrames(1024))
	// Pin both enclaves to one explicit base: the test premise needs
	// identical layouts, where Spawn would otherwise place disjoint slots.
	cfg := Config{SelfPaging: true, Policy: PolicyRateLimit, RateLimitBurst: 1 << 30, Base: DefaultBase}
	load := func(name string) *Proc {
		p, err := m.Spawn(AppImage{
			Name:      name,
			Libraries: []Library{{Name: "lib.so", Pages: 2}},
			HeapPages: 16,
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := load("a"), load("b")
	// Both enclaves load at the same base: identical heap layout.
	target := a.Heap.Page(3)
	if target != b.Heap.Page(3) {
		t.Fatal("layouts differ; test premise broken")
	}
	// Evict the page from both enclaves via the driver.
	for _, p := range []*Proc{a, b} {
		if _, err := m.Kernel.SetEnclaveManaged(p.Enclave(), []VAddr{target}); err != nil {
			t.Fatal(err)
		}
		if err := m.Kernel.EvictPages(p.Enclave(), []VAddr{target}); err != nil {
			t.Fatal(err)
		}
	}
	// The OS swaps the sealed blobs between the two enclaves' slots. It
	// copies a's first: a Put overwrites the view Get returned.
	blobA, err := m.Kernel.Store.Get(a.Enclave().ID, target)
	if err != nil {
		t.Fatal(err)
	}
	blobA.Ciphertext = append([]byte(nil), blobA.Ciphertext...)
	blobB, err := m.Kernel.Store.Get(b.Enclave().ID, target)
	if err != nil {
		t.Fatal(err)
	}
	m.Kernel.Store.Put(a.Enclave().ID, target, blobB)
	m.Kernel.Store.Put(b.Enclave().ID, target, blobA)
	// Restoring must fail for both: ELDU's sealing check rejects the
	// foreign blob.
	for _, p := range []*Proc{a, b} {
		if err := m.Kernel.FetchPages(p.Enclave(), []VAddr{target}); err == nil {
			t.Fatalf("%s accepted a foreign enclave's page blob", p.Image.Name)
		}
	}
}

func TestSGX2WithClusters(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:       true,
		Policy:           PolicyClusters,
		DataClusterPages: 8,
		QuotaPages:       44,
		Mech:             core.MechSGX2,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(func(ctx *Context) {
		pages, err := p.Alloc.AllocPages(48)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for i, va := range pages {
				ctx.Write(va, []byte{byte(pass), byte(i)})
			}
		}
		for i, va := range pages {
			buf := make([]byte, 2)
			ctx.Read(va, buf)
			if buf[0] != 1 || buf[1] != byte(i) {
				t.Errorf("page %d corrupted under SGX2+clusters: %v", i, buf)
			}
		}
		if err := p.Reg.CheckInvariant(func(vpn uint64) bool {
			resident, _ := p.Runtime.PageResident(mmu.PageOf(vpn))
			return resident
		}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter(t, p.Runtime.Metrics(), "runtime.pages_evicted") == 0 {
		t.Fatal("SGX2 cluster run did not page")
	}
}

func TestElidedAEXNeverExitsEnclaveOnFaults(t *testing.T) {
	// Run-to-completion: a scheduler quantum would add timer AEXs, which
	// this test asserts away (it counts only fault-path exits).
	m := NewMachine(WithEPCFrames(1024), WithQuantum(0))
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		ElideAEX:       true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     40,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(func(ctx *Context) {
		for pass := 0; pass < 2; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics()
	if snap.Counter(metrics.CntElidedFaults) == 0 {
		t.Fatal("no elided faults recorded")
	}
	if got := snap.Counter(metrics.CntAEXs); got != 0 {
		t.Fatalf("%d AEXs despite elision", got)
	}
	// The OS never even saw the faults.
	if got := snap.Counter(metrics.CntOSFaults); got != 0 {
		t.Fatalf("OS observed %d faults despite elision", got)
	}
}

func TestMeasurementAttestsConfiguration(t *testing.T) {
	build := func(selfPaging bool) [32]byte {
		m := NewMachine(WithEPCFrames(256))
		p, err := m.Spawn(testImage(8), Config{SelfPaging: selfPaging, Policy: PolicyPinAll})
		if err != nil {
			t.Fatal(err)
		}
		return p.Enclave().Measurement()
	}
	if build(true) != build(true) {
		t.Fatal("measurement not reproducible")
	}
	if build(true) == build(false) {
		t.Fatal("a relying party could not distinguish self-paging enclaves at attestation")
	}
}

func TestPermissionReductionAttackDetected(t *testing.T) {
	m := NewMachine(WithEPCFrames(256))
	p, err := m.Spawn(testImage(8), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	target := p.Code["libt.so"].Page(1)
	err = p.Run(func(ctx *Context) {
		ctx.Exec(target)
		m.Kernel.ReducePerms(target, mmu.PermRead|mmu.PermUser)
		ctx.Exec(target)
		t.Error("exec completed after permission reduction")
	})
	var term *TerminationError
	if !errors.As(err, &term) || term.Reason != sgx.TerminateAttackDetected {
		t.Fatalf("permission-reduction attack not detected: %v", err)
	}
}

func TestForwardedFaultsKeepOSManagedPagesWorking(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024))
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     40,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(func(ctx *Context) {
		heap := p.Heap.PageVAs()
		// Hand half the heap to the OS; both halves keep working.
		if err := ctx.ReleasePages(heap[:32]); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for i, va := range heap {
				ctx.Write(va, []byte{byte(i)})
			}
		}
		for i, va := range heap {
			buf := make([]byte, 1)
			ctx.Read(va, buf)
			if buf[0] != byte(i) {
				t.Errorf("page %d corrupted", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter(t, p.Runtime.Metrics(), "runtime.forwarded_faults") == 0 {
		t.Fatal("no faults were forwarded to the OS")
	}
}
