package experiments

import (
	"fmt"

	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/workloads"
)

// E1 — "Overhead from SGX architecture changes" (§7): the nbench suite with
// datasets resident in EPC, comparing a self-paging enclave whose TLB fills
// pay the pessimistic 10-cycle A/D check against one where the check is
// free. The paper reports a 0.07% geometric-mean slowdown, versus T-SGX's
// reported 1.5× for the same suite.

// E1Row is one nbench kernel's result.
type E1Row struct {
	Kernel      string
	BaseCycles  uint64
	ADCycles    uint64
	TLBFillADs  uint64
	SlowdownPct float64
}

// E1Result is the experiment output.
type E1Result struct {
	Rows        []E1Row
	GeomeanPct  float64
	PaperPct    float64 // the paper's reported number, for the report
	TSGXPercent float64 // T-SGX's reported overhead (competing defense)
	Metrics     []CellMetrics
}

// e1Cell is one kernel's measurement pair (base vs A/D check).
type e1Cell struct {
	row   E1Row
	ratio float64
}

// RunE1 executes the suite at the given scale. Each nbench kernel is an
// independent cell on the ambient pool.
func RunE1(scale int) E1Result {
	res := E1Result{PaperPct: 0.07, TSGXPercent: 50}
	kernels := workloads.NBench()
	cells, cm := runCells("E1", len(kernels), func(i int, rec *cellRecorder) e1Cell {
		k := kernels[i]
		base := runE1Kernel(k, scale, 0)
		withAD := runE1Kernel(k, scale, 10)
		rec.record("base", base.Metrics)
		rec.record("ad", withAD.Metrics)
		if base.Err != nil || withAD.Err != nil {
			panic(fmt.Sprintf("E1 %s failed: %v %v", k.Name, base.Err, withAD.Err))
		}
		slow := float64(withAD.Cycles) / float64(base.Cycles)
		return e1Cell{
			row: E1Row{
				Kernel:      k.Name,
				BaseCycles:  base.Cycles,
				ADCycles:    withAD.Cycles,
				TLBFillADs:  withAD.Metrics.Counter(metrics.CntADChecks),
				SlowdownPct: (slow - 1) * 100,
			},
			ratio: slow,
		}
	})
	res.Metrics = cm
	var ratios []float64
	for _, c := range cells {
		ratios = append(ratios, c.ratio)
		res.Rows = append(res.Rows, c.row)
	}
	res.GeomeanPct = (Geomean(ratios) - 1) * 100
	return res
}

func runE1Kernel(k workloads.Kernel, scale int, adCycles uint64) RunResult {
	ad := adCycles
	rc := RunConfig{
		Config:        libos.Config{SelfPaging: true, Policy: libos.PolicyPinAll},
		ADCheckCycles: &ad,
		// No quota: datasets fit in EPC; zero paging activity.
	}
	return RunKernel(k, rc, scale, 0xE1)
}

// Table renders the result.
func (r E1Result) Table() *Table {
	t := &Table{
		Title:  "E1: nbench overhead of the Autarky ISA changes (paper §7, ~0.07% geomean)",
		Note:   "pessimistic 10-cycle A/D check per TLB fill; datasets resident, no paging",
		Header: []string{"kernel", "base cycles", "with A/D check", "TLB fills", "slowdown"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Kernel,
			fmt.Sprintf("%d", row.BaseCycles),
			fmt.Sprintf("%d", row.ADCycles),
			fmt.Sprintf("%d", row.TLBFillADs),
			fmt.Sprintf("%.3f%%", row.SlowdownPct))
	}
	t.AddRow("GEOMEAN", "", "", "", fmt.Sprintf("%.3f%% (paper: %.2f%%; T-SGX: ~%.0f%%)",
		r.GeomeanPct, r.PaperPct, r.TSGXPercent))
	t.Metrics = r.Metrics
	return t
}
