package experiments

import (
	"fmt"

	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/workloads"
)

// E4 — Figure 7: rate-limited demand paging for unmodified binaries on the
// Phoenix and PARSEC suites with EPC restricted to induce paging. Baseline:
// the same kernel in a legacy enclave with OS demand paging (CLOCK).
// Autarky: self-paging with the rate-limit policy (FIFO), fault bound tuned
// to avoid false positives.
//
// Paper shape: ~6% mean slowdown (2% with AEX elision), slowdown
// correlates with page-fault rate, no false-positive terminations.

// E4Row is one application's result.
type E4Row struct {
	App          string
	BaseCycles   uint64
	AutkCycles   uint64
	ElideCycles  uint64
	Slowdown     float64
	SlowdownElid float64
	FaultsPerSec float64
	Faults       uint64
}

// E4Result is the experiment output.
type E4Result struct {
	Rows         []E4Row
	GeomeanSlow  float64
	GeomeanElide float64
	Metrics      []CellMetrics
}

// E4QuotaFraction restricts resident pages to this fraction of each
// kernel's arena (the paper reduces EPC to ~100 MB to induce paging).
const E4QuotaFraction = 0.6

// RunE4 executes all 14 applications at the given scale, one cell per
// application (three runs each: baseline, autarky, AEX-elided).
func RunE4(scale int) E4Result {
	var res E4Result
	var slows, elides []float64
	apps := append(workloads.Phoenix(), workloads.PARSEC()...)
	rows, cm := runCells("E4", len(apps), func(i int, rec *cellRecorder) E4Row {
		k := apps[i]
		quota := 12 + int(float64(k.ArenaPages)*E4QuotaFraction)
		seed := uint64(0xE4000 + i)

		base := RunKernel(k, RunConfig{Config: libos.Config{QuotaPages: quota}}, scale, seed)
		rl := RunConfig{
			Config: libos.Config{
				SelfPaging:     true,
				Policy:         libos.PolicyRateLimit,
				RateLimitBurst: 1 << 40, // tuned offline: no false positives (§7.2)
				QuotaPages:     quota,
			},
			EvictBatch: 16,
		}
		autk := RunKernel(k, rl, scale, seed)
		rl.ElideAEX = true
		elide := RunKernel(k, rl, scale, seed)
		rec.record("base", base.Metrics)
		rec.record("autk", autk.Metrics)
		rec.record("elide", elide.Metrics)
		for _, r := range []RunResult{base, autk, elide} {
			if r.Err != nil {
				panic(fmt.Sprintf("E4 %s (%s): %v", k.Name, r.Label, r.Err))
			}
		}
		faults := autk.Metrics.Counter(metrics.CntSelfFaults) + autk.Metrics.Counter(metrics.CntForwardedFaults)
		return E4Row{
			App:          k.Name,
			BaseCycles:   base.Cycles,
			AutkCycles:   autk.Cycles,
			ElideCycles:  elide.Cycles,
			Slowdown:     float64(autk.Cycles) / float64(base.Cycles),
			SlowdownElid: float64(elide.Cycles) / float64(base.Cycles),
			FaultsPerSec: PerSecond(faults, autk.Cycles),
			Faults:       faults,
		}
	})
	res.Metrics = cm
	for _, row := range rows {
		res.Rows = append(res.Rows, row)
		slows = append(slows, row.Slowdown)
		elides = append(elides, row.SlowdownElid)
	}
	res.GeomeanSlow = Geomean(slows)
	res.GeomeanElide = Geomean(elides)
	return res
}

// Table renders the result.
func (r E4Result) Table() *Table {
	t := &Table{
		Title:  "E4 / Fig.7: rate-limited paging on Phoenix + PARSEC (EPC restricted to induce paging)",
		Note:   "paper shape: ~6% mean slowdown (2% with AEX elision); slowdown correlates with fault rate",
		Header: []string{"app", "baseline cyc", "autarky cyc", "slowdown", "w/ AEX elide", "faults", "faults/s (x1000)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App,
			fmt.Sprintf("%d", row.BaseCycles),
			fmt.Sprintf("%d", row.AutkCycles),
			Pct(row.Slowdown),
			Pct(row.SlowdownElid),
			fmt.Sprintf("%d", row.Faults),
			F(row.FaultsPerSec/1000))
	}
	t.AddRow("GEOMEAN", "", "", Pct(r.GeomeanSlow), Pct(r.GeomeanElide), "", "")
	t.Metrics = r.Metrics
	return t
}
