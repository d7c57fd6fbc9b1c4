package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// SetCellBudget arms a per-cell cycle budget (0 disarms). Every clock that
// newHost and newFleetCell build enforces it cooperatively; see
// sim.Clock.SetLimit.
func SetCellBudget(cycles uint64) { cellBudget.Store(cycles) }

// CellBudget reports the ambient per-cell cycle budget.
func CellBudget() uint64 { return cellBudget.Load() }

// runCells runs cell(0..n-1) and returns the results in cell order,
// together with every metrics snapshot the cells recorded (also in cell
// order, so the combined output stays byte-identical at any concurrency).
// Cells must not share mutable state: each builds its own machine and
// records it through rec. At Jobs() == 1 the cells run inline on the
// caller's goroutine, in order; otherwise min(Jobs(), n) goroutines take
// them in order.
//
// A cell that panics — a crash, a failed check, an exceeded cell budget —
// fails alone: the other cells still run. runCells then panics with the
// first failure in cell order, as an error naming the cell ("E5[3]: ...")
// that wraps an error panic value, so errors.As still finds a
// *sim.LimitError.
func runCells[R any](label string, n int, cell func(i int, rec *cellRecorder) R) ([]R, []CellMetrics) {
	out := make([]R, n)
	errs := make([]error, n)
	recs := make([]cellRecorder, n)
	run := func(i int) {
		rec := &recs[i]
		rec.name = fmt.Sprintf("%s[%d]", label, i)
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok {
					errs[i] = fmt.Errorf("%s: %w", rec.name, err)
				} else {
					errs[i] = fmt.Errorf("%s: %v", rec.name, r)
				}
			}
		}()
		out[i] = cell(i, rec)
	}
	if workers := min(Jobs(), n); workers <= 1 {
		for i := range n {
			run(i)
		}
	} else {
		feed := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for i := range feed {
					run(i)
				}
			}()
		}
		for i := range n {
			feed <- i
		}
		close(feed)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
	var cm []CellMetrics
	for _, rec := range recs {
		cm = append(cm, rec.recs...)
	}
	return out, cm
}
