package autarky

import (
	"testing"

	"autarky/internal/metrics"
)

// TestSteadyStateFaultZeroAlloc gates whole self-paging requests, not just
// their parts: once a machine is warm, a request whose fault fetches a
// cluster and evicts another — through either paging mechanism and through
// the blob cache and ORAM beneath — must allocate nothing on the host. The
// subtests mirror the benchmark's paging workloads; each also checks that
// the measured requests really fault, fetch and evict, so a zero cannot
// come from a request that stopped paging.
func TestSteadyStateFaultZeroAlloc(t *testing.T) {
	const objPages = 4
	cases := []struct {
		name    string
		opts    []Option
		cfg     Config
		heap    int
		request func(ctx *Context, obj []VAddr, tag []byte)
	}{
		{
			// serve-paging: one get per request over 4-page data clusters.
			name: "sgx2-clusters-get",
			cfg: Config{SelfPaging: true, Mech: MechSGX2, Policy: PolicyClusters,
				QuotaPages: 24, DataClusterPages: objPages},
			heap: 64,
			request: func(ctx *Context, obj []VAddr, _ []byte) {
				for _, va := range obj {
					ctx.Load(va)
				}
			},
		},
		{
			// kv-mixed: a put and a get through EWB/ELDU, the blob cache and
			// the ORAM.
			name: "sgx1-clusters-cache-oram-put-get",
			opts: []Option{WithBackingStore(CachedBacking(64, ORAMBacking(512, nil)))},
			cfg: Config{SelfPaging: true, Mech: MechSGX1, Policy: PolicyClusters,
				QuotaPages: 24, DataClusterPages: objPages},
			heap: 128,
			request: func(ctx *Context, obj []VAddr, tag []byte) {
				tag[0]++
				for _, va := range obj {
					ctx.Write(va, tag)
				}
				for _, va := range obj {
					ctx.Read(va, tag)
				}
			},
		},
		{
			// fleet-chaos: demand paging under the rate-limit policy.
			name: "sgx2-rate-limit-get",
			cfg: Config{SelfPaging: true, Mech: MechSGX2, Policy: PolicyRateLimit,
				RateLimitBurst: 1 << 40, QuotaPages: 24},
			heap: 64,
			request: func(ctx *Context, obj []VAddr, _ []byte) {
				for _, va := range obj {
					ctx.Load(va)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(tc.opts...)
			p, err := m.Spawn(AppImage{
				Name:      tc.name,
				Libraries: []Library{{Name: "libss.so", Pages: 2}},
				HeapPages: tc.heap,
			}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			heap, err := p.Alloc.AllocPages(tc.heap)
			if err != nil {
				t.Fatal(err)
			}
			objects := len(heap) / objPages
			var allocs float64
			var before, after MetricsSnapshot
			err = p.Run(func(ctx *Context) {
				tag := make([]byte, 8)
				next := 0
				request := func() {
					tc.request(ctx, heap[next*objPages:(next+1)*objPages], tag)
					next = (next + 1) % objects
				}
				// Warm-up: enough rounds over every object for every buffer,
				// free list and scratch slice to reach its steady size.
				for i := 0; i < 20*objects; i++ {
					request()
				}
				before = m.Metrics()
				allocs = testing.AllocsPerRun(200, request)
				after = m.Metrics()
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []metrics.Counter{metrics.CntSelfFaults, metrics.CntPagesFetched, metrics.CntPagesEvicted} {
				if after.Counter(c) == before.Counter(c) {
					t.Fatalf("measured requests never moved %v: the test no longer pages", c)
				}
			}
			if allocs != 0 {
				t.Fatalf("a steady-state paging request allocates %.2f objects, want 0", allocs)
			}
		})
	}
}
