package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// E2 — Figure 5: paging latency using SGXv1 vs SGXv2 instructions, broken
// into enclave preemption (AEX+ERESUME), fault-handler invocation
// (EENTER+EEXIT), Autarky runtime overhead, and the SGX paging work itself
// (including en/decryption). Evictions run in batches of 16 pages (like the
// Intel driver) and are normalized to a single page.
//
// The paper's shape: total ≈ 25–31k cycles/page, preemption + handler
// invocation ≈ 40–50% of latency, SGXv1 cheaper than SGXv2.

// E2Stack is one bar of the figure.
type E2Stack struct {
	Mech      string // SGX1 / SGX2
	Op        string // fault (fetch) / evict
	Preempt   uint64 // AEX + ERESUME (+ TLB flushes)
	Invoc     uint64 // EENTER + EEXIT (+ TLB flushes)
	Handler   uint64 // Autarky runtime + OS fault path + exitless calls
	Paging    uint64 // SGX instructions incl. crypto
	Total     uint64
	Measured  float64 // empirical cycles per fault (fetch+amortized evict)
	FaultsRun uint64
}

// E2Result holds all four bars.
type E2Result struct {
	Stacks  []E2Stack
	Metrics []CellMetrics
}

// RunE2 executes the microbenchmark: a round-robin sweep over a heap much
// larger than the quota, so every touch faults, fetches one page and
// (amortized) evicts one. Each paging mechanism is an independent cell.
func RunE2(rounds int) E2Result {
	costs := sim.DefaultCosts()
	mechs := []core.Mech{core.MechSGX1, core.MechSGX2}
	cells, cm := runCells("E2", len(mechs), func(i int, rec *cellRecorder) [2]E2Stack {
		mech := mechs[i]
		res := runE2Sweep(mech, rounds)
		rec.record("", res.Metrics)
		faults := res.Metrics.Counter(metrics.CntSelfFaults)
		fault := analyticFaultStack(&costs, mech)
		fault.Measured = float64(res.Cycles) / float64(faults)
		fault.FaultsRun = faults
		evict := analyticEvictStack(&costs, mech)
		evict.FaultsRun = res.Metrics.Counter(metrics.CntPagesEvicted)
		return [2]E2Stack{fault, evict}
	})
	out := E2Result{Metrics: cm}
	for _, pair := range cells {
		out.Stacks = append(out.Stacks, pair[0], pair[1])
	}
	return out
}

func runE2Sweep(mech core.Mech, rounds int) RunResult {
	const heap = 64
	img := libos.AppImage{
		Name:      "fig5",
		Libraries: []libos.Library{{Name: "libfig5.so", Pages: 4}},
		HeapPages: heap,
	}
	rc := RunConfig{
		Config: libos.Config{
			SelfPaging:     true,
			Policy:         libos.PolicyRateLimit,
			RateLimitBurst: 1 << 40,
			QuotaPages:     12 + 24, // pinned stack+code plus 24 data slots
			Mech:           mech,
		},
		EvictBatch: 16,
	}
	return RunApp(img, rc, func(p *libos.Process, ctx *core.Context) {
		for r := 0; r < rounds; r++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
}

// analyticFaultStack decomposes the per-fault fetch cost from the cost
// model (the same decomposition the paper's Figure 5 presents).
func analyticFaultStack(c *sim.Costs, mech core.Mech) E2Stack {
	s := E2Stack{Mech: mech.String(), Op: "page-fault"}
	s.Preempt = c.AEX + c.ERESUME + 2*c.TLBFlushLocal
	s.Invoc = c.EENTER + c.EEXIT + 2*c.TLBFlushLocal
	s.Handler = c.TrustedHandler + c.OSFaultEntry + c.OSFaultWork + c.ExitlessCall
	switch mech {
	case core.MechSGX1:
		s.Paging = c.ELDU
	case core.MechSGX2:
		// EAUG service + blob read + software decrypt + EACCEPTCOPY, with
		// the extra exitless round trips of the in-enclave path.
		s.Paging = c.EAUG + c.EACCEPTCOPY + c.SWDecryptPage + 2*c.ExitlessCall
	}
	s.Total = s.Preempt + s.Invoc + s.Handler + s.Paging
	return s
}

// analyticEvictStack decomposes the per-page eviction cost, amortizing
// batch-wide work (ETRACK, the exitless call) over the 16-page batch.
func analyticEvictStack(c *sim.Costs, mech core.Mech) E2Stack {
	s := E2Stack{Mech: mech.String(), Op: "page-evict"}
	const batch = 16
	switch mech {
	case core.MechSGX1:
		s.Handler = c.ExitlessCall / batch
		s.Paging = c.EBLOCK + c.EWB + c.TLBShootdown + c.ETRACK/batch
	case core.MechSGX2:
		// Per page: EMODPR(+EACCEPT) to freeze, software encrypt, blob
		// hand-off, EMODT(+EACCEPT), EREMOVE — each service an exitless
		// call, the cost §7.1 attributes to SGX2's extra crossings.
		s.Handler = 4 * c.ExitlessCall
		s.Paging = c.EMODPR + 2*c.EACCEPT + c.SWEncryptPage + c.EMODT + c.EREMOVE + 2*c.TLBShootdown
	}
	s.Total = s.Preempt + s.Invoc + s.Handler + s.Paging
	return s
}

// Table renders the result.
func (r E2Result) Table() *Table {
	t := &Table{
		Title:  "E2 / Fig.5: paging latency breakdown (cycles per page; evict amortized over 16-page batches)",
		Note:   "paper shape: ~25-31k cycles total, preemption+invocation = 40-50%, SGX1 < SGX2",
		Header: []string{"op", "mech", "preempt(AEX+ERESUME)", "invoc(EENTER+EEXIT)", "runtime+OS", "SGX paging", "total", "measured/fault"},
	}
	for _, s := range r.Stacks {
		measured := ""
		if s.Measured > 0 {
			measured = fmt.Sprintf("%.0f", s.Measured)
		}
		t.AddRow(s.Op, s.Mech,
			fmt.Sprintf("%d", s.Preempt),
			fmt.Sprintf("%d", s.Invoc),
			fmt.Sprintf("%d", s.Handler),
			fmt.Sprintf("%d", s.Paging),
			fmt.Sprintf("%d", s.Total),
			measured)
	}
	t.Metrics = r.Metrics
	return t
}
