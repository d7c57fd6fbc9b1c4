package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"autarky/internal/runner"
)

// Every experiment is a grid of independent cells — one machine (own
// sim.Clock, EPC, kernel) per cell, no shared mutable state — so the suite
// is embarrassingly parallel. The Run* drivers fan their cells across the
// ambient worker pool configured here; results are collected in cell order,
// so the reported tables are byte-identical at any concurrency, including
// the sequential Jobs=1 case. determinism_test.go enforces that contract.

// jobsN is the ambient concurrency for experiment cells (0 = GOMAXPROCS).
var jobsN atomic.Int32

// cellBudget caps the cycles any single cell's machine may accumulate
// (0 = unlimited). A cell that overruns aborts with an error instead of
// hanging the suite.
var cellBudget atomic.Uint64

// SetJobs sets how many experiment cells may run concurrently. n <= 0
// restores the default (GOMAXPROCS). SetJobs(1) reproduces strictly
// sequential execution on the calling goroutine.
func SetJobs(n int) {
	if n < 0 {
		n = 0
	}
	jobsN.Store(int32(n))
}

// Jobs reports the ambient cell concurrency.
func Jobs() int {
	if n := jobsN.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetCellBudget arms a per-cell cycle budget (0 disarms). Each cell's
// machine clock enforces it cooperatively; see sim.Clock.SetLimit.
func SetCellBudget(cycles uint64) { cellBudget.Store(cycles) }

// CellBudget reports the ambient per-cell cycle budget.
func CellBudget() uint64 { return cellBudget.Load() }

// runCells executes cell(0..n-1) as independent runner jobs on the ambient
// pool and returns the results in cell order, together with every metrics
// snapshot the cells recorded (also in cell order, so the combined output
// stays byte-identical at any concurrency). Cells must not share mutable
// state: each builds its own machine and records it through rec. A cell
// that panics, errors, or exceeds the cell budget makes runCells panic with
// the job's error, preserving the sequential Run* contract for callers.
func runCells[R any](label string, n int, cell func(i int, rec *cellRecorder) R) ([]R, []CellMetrics) {
	jobs := make([]runner.Job, n)
	recs := make([]*cellRecorder, n)
	budget := CellBudget()
	for i := range jobs {
		i := i
		rec := &cellRecorder{name: fmt.Sprintf("%s[%d]", label, i)}
		recs[i] = rec
		jobs[i] = runner.Job{
			Name:   rec.name,
			Budget: budget,
			Fn:     func(context.Context) (any, error) { return cell(i, rec), nil },
		}
	}
	out := make([]R, n)
	for _, res := range runner.Run(context.Background(), Jobs(), jobs) {
		if res.Err != nil {
			panic(res.Err)
		}
		out[res.Index] = res.Value.(R)
	}
	var cm []CellMetrics
	for _, rec := range recs {
		cm = append(cm, rec.recs...)
	}
	return out, cm
}
