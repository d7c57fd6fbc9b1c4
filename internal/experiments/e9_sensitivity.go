package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/sim"
)

// E9 — cost-model sensitivity. The reproduction's conclusions are relative
// claims under a calibrated cost model; this experiment perturbs the
// model's most influential constants (enclave-transition and paging costs)
// by ±50% and re-measures two headline quantities:
//
//   - the Table-2 libjpeg overhead of Autarky vs unprotected (−18%),
//   - the Figure-5 share of per-fault latency spent on transitions.
//
// The paper's qualitative conclusions should hold across the whole range;
// a conclusion that flips under perturbation would be a cost-model
// artifact, not a reproduced result.

// E9Row is one perturbation point.
type E9Row struct {
	ScalePct         int     // transition-cost multiplier in percent
	JPEGOverheadPct  float64 // autarky-vs-unprotected throughput delta
	TransitionsShare float64 // fraction of fault latency spent on transitions
}

// E9Result is the experiment output.
type E9Result struct {
	Rows    []E9Row
	Metrics []CellMetrics
}

// RunE9 sweeps the transition-cost multiplier; every point of the
// sensitivity grid is an independent cell.
func RunE9() E9Result {
	pcts := []int{50, 75, 100, 150}
	rows, cm := runCells("E9", len(pcts), func(i int, rec *cellRecorder) E9Row {
		pct := pcts[i]
		costs := sim.DefaultCosts()
		scale := func(v uint64) uint64 { return v * uint64(pct) / 100 }
		costs.EENTER = scale(costs.EENTER)
		costs.EEXIT = scale(costs.EEXIT)
		costs.AEX = scale(costs.AEX)
		costs.ERESUME = scale(costs.ERESUME)
		costs.EWB = scale(costs.EWB)
		costs.ELDU = scale(costs.ELDU)

		return E9Row{
			ScalePct:         pct,
			JPEGOverheadPct:  e9JPEGOverhead(rec, costs),
			TransitionsShare: e9TransitionShare(costs),
		}
	})
	return E9Result{Rows: rows, Metrics: cm}
}

// e9JPEGOverhead re-runs a reduced Table-2 libjpeg comparison under the
// perturbed costs and returns the autarky-vs-unprotected delta in percent.
func e9JPEGOverhead(rec *cellRecorder, costs sim.Costs) float64 {
	run := func(selfPaging bool) uint64 {
		const heap = 160
		img := libos.AppImage{
			Name:      "e9",
			Libraries: []libos.Library{{Name: "libe9.so", Pages: 4}},
			HeapPages: heap,
		}
		k := newHost(costs)
		cfg := libos.Config{
			SelfPaging:     selfPaging,
			Policy:         libos.PolicyRateLimit,
			RateLimitBurst: 1 << 40,
			QuotaPages:     12 + 60,
		}
		p, err := libos.Load(k, img, cfg)
		if err != nil {
			panic(fmt.Sprintf("E9 load: %v", err))
		}
		var cycles uint64
		err = p.Run(func(ctx *core.Context) {
			if selfPaging {
				// The insensitive buffer is OS-managed, like Table 2.
				if err := ctx.ReleasePages(p.Heap.PageVAs()[:128]); err != nil {
					panic(err)
				}
			}
			t0 := k.Clock.Cycles()
			for pass := 0; pass < 3; pass++ {
				for _, va := range p.Heap.PageVAs()[:128] {
					ctx.Store(va)
					k.Clock.ChargeAmbient(3500) // per-page pipeline work
				}
			}
			cycles = k.Clock.Cycles() - t0
		})
		rec.recordClock(e7Sub(selfPaging), k.Clock)
		if err != nil {
			panic(fmt.Sprintf("E9 run: %v", err))
		}
		return cycles
	}
	base := run(false)
	autk := run(true)
	return (float64(autk)/float64(base) - 1) * 100
}

// e9TransitionShare recomputes the Fig.5 transition fraction analytically
// under the perturbed costs.
func e9TransitionShare(costs sim.Costs) float64 {
	s := analyticFaultStack(&costs, core.MechSGX1)
	return float64(s.Preempt+s.Invoc) / float64(s.Total)
}

// Table renders the result.
func (r E9Result) Table() *Table {
	t := &Table{
		Title:  "E9: cost-model sensitivity (transition & paging costs scaled)",
		Note:   "the reproduced conclusions must hold across the sweep: Autarky costs a modest\noverhead under paging, and transitions dominate per-fault latency",
		Header: []string{"cost scale", "libjpeg-style overhead", "transition share of fault"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d%%", row.ScalePct),
			fmt.Sprintf("%+.1f%%", row.JPEGOverheadPct),
			fmt.Sprintf("%.0f%%", row.TransitionsShare*100),
		)
	}
	t.Metrics = r.Metrics
	return t
}
