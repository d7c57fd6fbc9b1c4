package experiments

import (
	"fmt"

	"autarky/internal/orderly"
)

// E13 — orderliness: the model checker from internal/orderly run at full
// depth over every scenario. Each cell exhaustively enumerates adversarial
// lifecycle interleavings (load, run, suspend/resume, checkpoint/restore,
// destroy, synthetic faults and timers, blob tampering and rollback,
// backend swaps) against the declarative orderliness spec and reports the
// exploration statistics. The security claim is the violations column: it
// must read 0 everywhere — every legal prefix succeeded, every illegal
// reordering was refused with its documented sentinel (or terminated the
// enclave where the spec says integrity demands it), and nothing panicked
// or silently succeeded.
//
// The digest column folds every executed trace and its outcome class into
// one order-sensitive hash, making the table a determinism witness: the
// same build must print byte-identical digests at any -jobs value.

// E13Params sizes the exploration.
type E13Params struct {
	// MaxDepth bounds trace length per scenario. Depth 8 over the default
	// scenarios explores >10,000 distinct interleavings.
	MaxDepth int
	// Scenarios lists the machines under test (one cell each).
	Scenarios []orderly.Scenario
}

// DefaultE13Params returns the committed-golden configuration.
func DefaultE13Params() E13Params {
	return E13Params{
		MaxDepth:  8,
		Scenarios: orderly.DefaultScenarios(),
	}
}

// E13Row is one scenario's exploration summary.
type E13Row struct {
	Scenario      string
	Interleavings int
	States        int
	Transitions   int
	Pruned        int
	Skipped       int
	OKs           int
	Refusals      int
	Terminations  int
	Violations    int
	Digest        uint64
}

// E13Result is the experiment output.
type E13Result struct {
	Rows    []E13Row
	Metrics []CellMetrics
	// Counterexamples carries any spec violations verbatim so callers
	// (and the e7 attack suite) can replay them; empty on a healthy build.
	Counterexamples []orderly.Counterexample
}

// TotalInterleavings sums the executed interleavings across scenarios.
func (r E13Result) TotalInterleavings() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Interleavings
	}
	return n
}

// RunE13 executes one model-checking cell per scenario.
func RunE13(p E13Params) E13Result {
	type cellOut struct {
		row E13Row
		cxs []orderly.Counterexample
	}
	cells, cm := runCells("E13", len(p.Scenarios), func(i int, rec *cellRecorder) cellOut {
		sc := p.Scenarios[i]
		res := orderly.Run(orderly.Config{Scenario: sc, MaxDepth: p.MaxDepth, Budget: CellBudget()})
		if res.HasSnapshot {
			rec.record(sc.Name, res.LastSnapshot)
		}
		return cellOut{
			row: E13Row{
				Scenario:      res.Scenario,
				Interleavings: res.Interleavings,
				States:        res.States,
				Transitions:   res.Transitions,
				Pruned:        res.Pruned,
				Skipped:       res.Skipped,
				OKs:           res.OKs,
				Refusals:      res.Refusals,
				Terminations:  res.Terminations,
				Violations:    len(res.Violations),
				Digest:        res.Digest,
			},
			cxs: res.Violations,
		}
	})
	out := E13Result{Metrics: cm}
	for _, c := range cells {
		out.Rows = append(out.Rows, c.row)
		out.Counterexamples = append(out.Counterexamples, c.cxs...)
	}
	return out
}

// Table renders the result.
func (r E13Result) Table() *Table {
	t := &Table{
		Title: "E13: orderliness — exhaustive adversarial lifecycle interleavings",
		Note: "bounded-DFS model checking of the real kernel/libos APIs against the declarative orderliness spec;\n" +
			"interleavings = executed trace prefixes, states = distinct canonical machine digests, skipped = op/state\n" +
			"pairs outside the spec (deliberate gaps are documented in internal/orderly/spec.go); violations must be 0:\n" +
			"legal prefixes succeed, illegal reorderings refuse with documented sentinels, integrity attacks terminate;\n" +
			"the digest column is order-sensitive over every trace+outcome — byte-identical at any -jobs value",
		Header: []string{"scenario", "interleavings", "states", "transitions",
			"pruned", "skipped", "ok", "refused", "terms", "violations", "digest"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Scenario,
			fmt.Sprintf("%d", row.Interleavings),
			fmt.Sprintf("%d", row.States),
			fmt.Sprintf("%d", row.Transitions),
			fmt.Sprintf("%d", row.Pruned),
			fmt.Sprintf("%d", row.Skipped),
			fmt.Sprintf("%d", row.OKs),
			fmt.Sprintf("%d", row.Refusals),
			fmt.Sprintf("%d", row.Terminations),
			fmt.Sprintf("%d", row.Violations),
			fmt.Sprintf("%016x", row.Digest),
		)
	}
	for _, cx := range r.Counterexamples {
		t.AddRow("COUNTEREXAMPLE", cx.String(), "", "", "", "", "", "", "", "", "")
	}
	t.Metrics = r.Metrics
	return t
}
