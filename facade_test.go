package autarky

import (
	"testing"

	"autarky/internal/mmu"
	"autarky/internal/sim"
)

func TestMachineOptions(t *testing.T) {
	costs := sim.DefaultCosts()
	costs.EENTER = 1
	m := NewMachine(
		WithEPCFrames(128),
		WithTLBGeometry(8, 2),
		WithCosts(costs),
		WithRootSecret([]byte("custom")),
	)
	if n := m.Kernel.CPU.EPC.NumFrames(); n != 128 {
		t.Fatalf("EPC frames = %d", n)
	}
	if m.Costs.EENTER != 1 {
		t.Fatalf("costs not applied: EENTER = %d", m.Costs.EENTER)
	}
	if m.Cycles() != 0 {
		t.Fatal("fresh machine has cycles")
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() uint64 {
		m := NewMachine(WithEPCFrames(512))
		p, err := m.Spawn(testImage(32), Config{
			SelfPaging:     true,
			Policy:         PolicyRateLimit,
			RateLimitBurst: 1 << 30,
			QuotaPages:     28,
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
		return m.Cycles()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs diverged: %d vs %d cycles", a, b)
	}
}

func TestHypervisorStaticPartitioning(t *testing.T) {
	hv := NewHypervisor(1024)
	g1, err := hv.CreateGuest(512)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := hv.CreateGuest(256)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Remaining() != 256 {
		t.Fatalf("Remaining = %d", hv.Remaining())
	}
	if _, err := hv.CreateGuest(512); err == nil {
		t.Fatal("over-assignment accepted")
	}
	// Partitions are disjoint PFN ranges.
	b1, n1 := GuestEPCRange(g1)
	b2, n2 := GuestEPCRange(g2)
	if b1+mmu.PFN(n1) > b2 && b2+mmu.PFN(n2) > b1 {
		t.Fatalf("partitions overlap: [%d,%d) and [%d,%d)", b1, int(b1)+n1, b2, int(b2)+n2)
	}

	// §5.4: Autarky enclaves inside each guest work unmodified. Both guests
	// run self-paging enclaves under quota concurrently.
	for gi, g := range hv.Guests() {
		p, err := g.Spawn(testImage(48), Config{
			SelfPaging:     true,
			Policy:         PolicyRateLimit,
			RateLimitBurst: 1 << 30,
			QuotaPages:     36,
		})
		if err != nil {
			t.Fatalf("guest %d: %v", gi, err)
		}
		err = p.Run(func(ctx *Context) {
			for i, va := range p.Heap.PageVAs() {
				ctx.Write(va, []byte{byte(gi), byte(i)})
			}
			for i, va := range p.Heap.PageVAs() {
				buf := make([]byte, 2)
				ctx.Read(va, buf)
				if buf[0] != byte(gi) || buf[1] != byte(i) {
					t.Errorf("guest %d page %d corrupted", gi, i)
				}
			}
		})
		if err != nil {
			t.Fatalf("guest %d run: %v", gi, err)
		}
		if counter(t, p.Runtime.Metrics(), "runtime.pages_evicted") == 0 {
			t.Errorf("guest %d did not page", gi)
		}
	}
}
