package attack

import (
	"reflect"
	"testing"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/mmu"
	"autarky/internal/sched"
	"autarky/internal/trace"
)

// Cross-tenant isolation under the shared scheduler (§5.4): two enclaves
// time-share one machine, and the adversary reads the kernel's fault log —
// the strongest passive observation the consolidation setting adds. The
// events attributable to tenant A's ELRANGE must be invariant to tenant B's
// secret access pattern: co-residency must not open a cross-tenant channel.
// Tenant B's own events are the classic controlled channel — present and
// secret-dependent for a legacy enclave, address-masked under Autarky.

const (
	tenantABase = mmu.VAddr(0x10_0000_0000)
	tenantBBase = mmu.VAddr(0x20_0000_0000)
)

// runCoTenants time-slices victim A (fixed heap sweep) against tenant B
// (secret-dependent walk) and splits the faults the kernel observed by
// ELRANGE.
func runCoTenants(t *testing.T, selfPaging bool, secret []int) (aLog, bLog *trace.Log) {
	t.Helper()
	m := newMachine()
	seen := &trace.Log{}
	m.kernel.Observed = seen
	sc := sched.New(m.kernel, sched.NewRoundRobin(), 4000)

	load := func(name string, elrange mmu.VAddr) *libos.Process {
		img := libos.AppImage{
			Name:      name,
			Libraries: []libos.Library{{Name: "lib" + name + ".so", Pages: 2}},
			HeapPages: 12,
		}
		// Quota below the footprint so both tenants keep paging (and
		// faulting) for their entire run.
		cfg := libos.Config{Base: elrange, QuotaPages: 13}
		if selfPaging {
			cfg.SelfPaging = true
			cfg.Policy = libos.PolicyRateLimit
			cfg.RateLimitBurst = 1 << 40
		}
		p, err := libos.Load(m.kernel, img, cfg)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		return p
	}

	a := load("victimA", tenantABase)
	b := load("tenantB", tenantBBase)

	sc.Spawn("victimA", 0, a.Proc, func() error {
		return a.Run(func(ctx *core.Context) {
			heap := a.Heap.PageVAs()
			for r := 0; r < 5; r++ {
				for _, va := range heap {
					ctx.Load(va)
				}
			}
		})
	})
	sc.Spawn("tenantB", 0, b.Proc, func() error {
		return b.Run(func(ctx *core.Context) {
			heap := b.Heap.PageVAs()
			for r := 0; r < 5; r++ {
				for _, s := range secret {
					ctx.Load(heap[s])
				}
			}
		})
	})
	if err := sc.WaitAll(); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}

	aLog, bLog = &trace.Log{}, &trace.Log{}
	for _, ev := range seen.Only(trace.KindFault).Events {
		switch {
		case ev.Addr >= tenantABase && ev.Addr < tenantBBase:
			aLog.Add(ev)
		case ev.Addr >= tenantBBase:
			bLog.Add(ev)
		}
	}
	return aLog, bLog
}

func TestSchedulerIsolatesCoTenantFaultLogs(t *testing.T) {
	// Two secrets of equal length touching the same heap in different
	// orders — the pattern a controlled-channel attacker would distinguish.
	secretX := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	secretY := []int{11, 3, 7, 0, 9, 5, 1, 10, 2, 8, 4, 6}

	for _, mode := range []struct {
		name       string
		selfPaging bool
	}{
		{"legacy", false},
		{"autarky", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			aX, bX := runCoTenants(t, mode.selfPaging, secretX)
			aY, bY := runCoTenants(t, mode.selfPaging, secretY)

			// The isolation property: A's slice of the fault log is the
			// same page sequence whatever secret B runs.
			if aX.Len() == 0 {
				t.Fatal("victim A never faulted — the observation has no teeth")
			}
			if !reflect.DeepEqual(aX.Pages(), aY.Pages()) {
				t.Errorf("tenant A's fault log depends on tenant B's secret:\n%v\nvs\n%v",
					aX.Pages(), aY.Pages())
			}

			if mode.selfPaging {
				// Autarky masking: every B event carries only the ELRANGE
				// base — the page-granular channel is closed. (The number
				// of masked events may still vary; that residual
				// fault-frequency channel is what the §5.2.4 rate bound
				// caps, not what masking hides.)
				for _, log := range []*trace.Log{bX, bY} {
					if log.Len() == 0 {
						t.Fatal("tenant B never faulted — the observation has no teeth")
					}
					for _, ev := range log.Events {
						if ev.Addr != tenantBBase {
							t.Fatalf("masked fault leaked address %s", ev.Addr)
						}
					}
				}
			} else {
				// Legacy control: without masking the channel is real — B's
				// own fault log must distinguish the secrets, or the test
				// would pass vacuously.
				if bX.Len() == 0 || reflect.DeepEqual(bX.Pages(), bY.Pages()) {
					t.Error("legacy control: tenant B's fault log should reveal its access order")
				}
			}
		})
	}
}
