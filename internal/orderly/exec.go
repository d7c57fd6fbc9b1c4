package orderly

import "autarky/internal/metrics"

// StepOutcome is one executed step of ExecuteTrace: the operation, the
// lifecycle phase it was applied in, its outcome class ("ok", "refused",
// "term", "violation", "panic") and the error text ("" on success).
type StepOutcome struct {
	Op    Op
	Phase Phase
	Class string
	Err   string
}

// ExecuteTrace replays one checker-format trace on a fresh machine, judges
// it against the default spec, and returns the executed steps, any
// divergence (nil when the implementation conforms), and the final
// machine's metrics snapshot. The e7 attack suite uses it to drive its
// ordering attacks from the same traces the model checker explores, so an
// attack sequence reported there is by construction one the checker has
// verified — and a counterexample printed by the checker can be pasted
// straight into the suite.
func ExecuteTrace(sc Scenario, trace []Op) ([]StepOutcome, *Counterexample, metrics.Snapshot) {
	steps, _, w := runTrace(DefaultSpec(), sc, trace)
	snap := metrics.Of(w.kernel.Clock).Snapshot()
	out := make([]StepOutcome, len(steps))
	for i, s := range steps {
		o := StepOutcome{Op: trace[i], Phase: s.phase, Class: s.class()}
		if s.err != nil {
			o.Err = s.err.Error()
		}
		out[i] = o
	}
	return out, Replay(nil, sc, trace), snap
}
