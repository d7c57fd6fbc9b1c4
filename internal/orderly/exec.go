package orderly

import (
	"autarky/internal/metrics"
	"autarky/internal/trace"
)

// StepOutcome is one executed step of ExecuteTrace: the operation, the
// lifecycle phase it was applied in, its outcome class ("ok", "refused",
// "term", "violation", "panic") and the error text ("" on success).
type StepOutcome struct {
	Op    Op
	Phase Phase
	Class string
	Err   string
}

// ExecuteTrace runs one checker-format trace once on a fresh machine,
// judges it against the default spec, and returns the executed steps, any
// divergence (nil when the implementation conforms, exactly as Replay
// would report it), the final machine's metrics snapshot, and what its OS
// observed (the kernel's Observed record, attached for the whole run). The
// e7 attack suite uses it to drive its ordering attacks from the same
// traces the model checker explores, so an attack sequence reported there
// is by construction one the checker has verified — and a counterexample
// printed by the checker can be pasted straight into the suite. The machine
// aborts with a *sim.LimitError past budget cycles (0 = unlimited).
func ExecuteTrace(sc Scenario, ops []Op, budget uint64) ([]StepOutcome, *Counterexample, metrics.Snapshot, *trace.Log) {
	w := newWorld(sc, budget)
	seen := &trace.Log{}
	w.kernel.Observed = seen
	steps, skippedAt := runTrace(DefaultSpec(), w, ops)
	out := make([]StepOutcome, len(steps))
	for i, s := range steps {
		o := StepOutcome{Op: ops[i], Phase: s.phase, Class: s.class()}
		if s.err != nil {
			o.Err = s.err.Error()
		}
		out[i] = o
	}
	return out, judge(sc, ops, steps, skippedAt), metrics.Of(w.kernel.Clock).Snapshot(), seen
}
