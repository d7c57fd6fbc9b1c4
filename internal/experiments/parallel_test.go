package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"autarky/internal/sim"
)

// TestRunCellsOrderedResults runs a grid at several concurrencies: every
// cell runs once, and results and snapshots come back in cell order, each
// snapshot named after its cell.
func TestRunCellsOrderedResults(t *testing.T) {
	t.Cleanup(func() { SetJobs(0) })
	for _, jobs := range []int{1, 2, 8} {
		SetJobs(jobs)
		var ran atomic.Int32
		out, cm := runCells("T", 50, func(i int, rec *cellRecorder) int {
			ran.Add(1)
			clock := sim.NewClock()
			clock.ChargeAs(sim.CatCompute, uint64(i))
			rec.recordClock("", clock)
			return i * i
		})
		if ran.Load() != 50 || len(out) != 50 || len(cm) != 50 {
			t.Fatalf("jobs=%d: ran %d cells, %d results, %d snapshots; want 50 each", jobs, ran.Load(), len(out), len(cm))
		}
		for i := range out {
			if out[i] != i*i || cm[i].Cell != fmt.Sprintf("T[%d]", i) || cm[i].Metrics.Cycles != uint64(i) {
				t.Fatalf("jobs=%d: cell %d out of order: result %d, snapshot %s at %d cycles",
					jobs, i, out[i], cm[i].Cell, cm[i].Metrics.Cycles)
			}
		}
	}
}

// TestRunCellsManyCellsFewWorkers runs far more cells than workers: every
// cell still runs exactly once and yields its result.
func TestRunCellsManyCellsFewWorkers(t *testing.T) {
	t.Cleanup(func() { SetJobs(0) })
	SetJobs(4)
	var ran atomic.Int32
	hits := make([]atomic.Int32, 200)
	out, _ := runCells("N", len(hits), func(i int, _ *cellRecorder) int {
		ran.Add(1)
		hits[i].Add(1)
		return i
	})
	if ran.Load() != int32(len(hits)) || len(out) != len(hits) {
		t.Fatalf("ran %d cells, %d results; want %d each", ran.Load(), len(out), len(hits))
	}
	for i := range hits {
		if hits[i].Load() != 1 || out[i] != i {
			t.Fatalf("cell %d ran %d times, result %d", i, hits[i].Load(), out[i])
		}
	}
}

// cellFailure runs a grid of len(done) cells in which cell stringCell panics
// with a string and cell limitCell overruns its clock's 1000-cycle budget. It
// returns what runCells panicked with; done records which cells finished.
func cellFailure(stringCell, limitCell int, done []bool) (err error) {
	defer func() { err, _ = recover().(error) }()
	runCells("F", len(done), func(i int, _ *cellRecorder) int {
		switch i {
		case stringCell:
			panic("cell exploded")
		case limitCell:
			clock := sim.NewClock()
			clock.SetLimit(1000)
			for range 100 {
				clock.ChargeAs(sim.CatCompute, 100)
			}
		}
		done[i] = true
		return i
	})
	return nil
}

// TestRunCellsPanicIsolation checks that a panicking cell does not stop the
// others: every other cell still finishes, and runCells panics with the
// first failure in cell order, naming that cell.
func TestRunCellsPanicIsolation(t *testing.T) {
	t.Cleanup(func() { SetJobs(0) })
	for _, jobs := range []int{1, 2} {
		SetJobs(jobs)
		for _, c := range []struct{ stringCell, limitCell int }{{4, 2}, {1, 3}} {
			done := make([]bool, 6)
			err := cellFailure(c.stringCell, c.limitCell, done)
			first := min(c.stringCell, c.limitCell)
			if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("F[%d]: ", first)) {
				t.Fatalf("jobs=%d: runCells panicked with %v, want the failure of F[%d]", jobs, err, first)
			}
			if first == c.stringCell && err.Error() != "F[1]: cell exploded" {
				t.Fatalf("jobs=%d: string cell first: runCells panicked with %v, want F[1]: cell exploded", jobs, err)
			}
			for i, ok := range done {
				if ok == (i == c.stringCell || i == c.limitCell) {
					t.Fatalf("jobs=%d: cells %+v: cell %d done=%v", jobs, c, i, ok)
				}
			}
		}
	}
}

// TestRunCellsErrorIsUnwrappable checks that a cell's error survives the
// wrapping that names the cell: errors.Is finds a panicked sentinel, and
// errors.As recovers the *sim.LimitError of an overrun budget.
func TestRunCellsErrorIsUnwrappable(t *testing.T) {
	t.Cleanup(func() { SetJobs(0) })
	sentinel := errors.New("sentinel")
	for _, jobs := range []int{1, 2} {
		SetJobs(jobs)

		err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			runCells("E", 3, func(i int, _ *cellRecorder) int {
				if i == 1 {
					panic(sentinel)
				}
				return i
			})
			return nil
		}()
		if !errors.Is(err, sentinel) || !strings.HasPrefix(err.Error(), "E[1]: ") {
			t.Fatalf("jobs=%d: error panic lost its cause or its cell: %v", jobs, err)
		}

		err = cellFailure(4, 2, make([]bool, 6))
		var le *sim.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("jobs=%d: limit cell first: runCells panicked with %v, want F[2] wrapping a LimitError", jobs, err)
		}
		if le.Limit != 1000 || le.At <= le.Limit {
			t.Fatalf("jobs=%d: bad limit error %+v", jobs, le)
		}

		err = cellFailure(1, 3, make([]bool, 6))
		if err == nil || errors.As(err, &le) {
			t.Fatalf("jobs=%d: string cell first: runCells panicked with %v, want no LimitError", jobs, err)
		}
	}
}
