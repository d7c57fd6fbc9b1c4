package experiments

import (
	"testing"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
)

// The attribution layer must track real behaviour, not just sum correctly:
// under a fixed EPC quota, growing an oversubscribed working set means more
// faulting and paging relative to compute, so the share of cycles attributed
// to paging (incl. page crypto) must grow monotonically with the working-set
// size. All sizes exceed the quota: resident runs are dominated by one-time
// image-load costs rather than steady-state paging, so they are not a fair
// point on this curve.
func TestPagingShareGrowsWithWorkingSet(t *testing.T) {
	const quota = 12 + 24 // pinned stack+code plus 24 data slots
	sizes := []int{32, 48, 96, 192}
	shares := make([]float64, 0, len(sizes))
	for _, heap := range sizes {
		img := libos.AppImage{
			Name:      "wss",
			Libraries: []libos.Library{{Name: "libwss.so", Pages: 4}},
			HeapPages: heap,
		}
		rc := RunConfig{
			Config: libos.Config{
				SelfPaging:     true,
				Policy:         libos.PolicyRateLimit,
				RateLimitBurst: 1 << 40,
				QuotaPages:     quota,
			},
			EvictBatch: 16,
		}
		res := RunApp(img, rc, func(p *libos.Process, ctx *core.Context) {
			// Enough rounds that steady-state behaviour dominates the
			// one-time load/setup costs: a resident working set stops
			// faulting after round one, an oversubscribed one never does.
			for round := 0; round < 60; round++ {
				for _, va := range p.Heap.PageVAs() {
					ctx.Store(va)
				}
			}
		})
		if res.Err != nil {
			t.Fatalf("heap=%d: %v", heap, res.Err)
		}
		if err := res.Metrics.Check(); err != nil {
			t.Fatalf("heap=%d: %v", heap, err)
		}
		shares = append(shares, PagingShare(res.Metrics))
	}
	for i := 1; i < len(shares); i++ {
		if shares[i] < shares[i-1] {
			t.Fatalf("paging share not monotone in working-set size: %v for heaps %v", shares, sizes)
		}
	}
	if shares[len(shares)-1] <= shares[0] {
		t.Fatalf("paging share flat across a 6x working-set growth: %v", shares)
	}
	// The oversubscribed runs actually page: a meaningful fraction of all
	// cycles must be attributed beyond plain compute.
	if shares[len(shares)-1] < 0.10 {
		t.Fatalf("largest working set attributes only %.1f%% to paging", shares[len(shares)-1]*100)
	}
}

// CheckAttribution must reject both empty input and drifted snapshots.
func TestCheckAttribution(t *testing.T) {
	if err := CheckAttribution(nil); err == nil {
		t.Fatal("empty cell list accepted")
	}
	good := CellMetrics{Cell: "X[0]", Metrics: metrics.Snapshot{}}
	if err := CheckAttribution([]CellMetrics{good}); err != nil {
		t.Fatalf("zero snapshot rejected: %v", err)
	}
	bad := good
	bad.Metrics.Cycles = 1 // cycles without any bucket: impossible by construction
	if err := CheckAttribution([]CellMetrics{good, bad}); err == nil {
		t.Fatal("drifted snapshot accepted")
	}
}
