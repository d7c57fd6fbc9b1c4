package orderly

import (
	"fmt"

	"autarky/internal/metrics"
)

// Config parameterises one exploration.
type Config struct {
	// Scenario fixes the machine under test.
	Scenario Scenario
	// Spec is the orderliness model (nil = DefaultSpec).
	Spec *Spec
	// MaxDepth bounds trace length.
	MaxDepth int
	// Budget caps the cycles of every machine the exploration builds (0 =
	// unlimited); a machine that overruns panics with a *sim.LimitError.
	Budget uint64
}

// Result summarises one exploration. All counters are deterministic
// functions of (Scenario, Spec, MaxDepth, FirstOp).
type Result struct {
	Scenario string
	// Interleavings is the number of executed trace prefixes (DFS nodes).
	Interleavings int
	// States is the number of distinct canonical state digests reached.
	States int
	// Transitions is the total number of operations applied, replays
	// included — the raw work the exploration did.
	Transitions int
	// Pruned counts branches cut because their digest was already seen.
	Pruned int
	// Skipped counts (op, state) combinations with no spec row (or that
	// were structurally impossible); they are visible here, not silently
	// explored.
	Skipped int
	// Outcome class tallies across executed steps.
	OKs, Refusals, Terminations int
	// Violations holds one replayable counterexample per divergence.
	Violations []Counterexample
	// Digest folds every executed trace and its outcome into one
	// order-sensitive hash — the cross-jobs determinism witness.
	Digest uint64
	// LastSnapshot is the metrics snapshot of the final replayed machine
	// (valid when HasSnapshot; an all-skipped shard has no machine).
	LastSnapshot metrics.Snapshot
	HasSnapshot  bool
}

// stepOutcome is what one applied operation produced.
type stepOutcome struct {
	err       error
	panicked  bool
	violation string // non-empty = spec divergence
	want      Want
	phase     Phase // phase before the op
}

// class buckets the outcome for the tally columns.
func (s stepOutcome) class() string {
	switch {
	case s.panicked:
		return "panic"
	case s.violation != "":
		return "violation"
	case s.err == nil:
		return "ok"
	case s.want.Kind == WantTerm:
		return "term"
	default:
		return "refused"
	}
}

// runTrace replays one full trace on w, a fresh world. It returns the
// outcome of every executed step and the index of the op that was skipped
// (-1 when none was). A violation at any step stops the replay there — the
// suffix of a broken prefix proves nothing.
func runTrace(spec *Spec, w *world, trace []Op) (steps []stepOutcome, skippedAt int) {
	skippedAt = -1
	for i, op := range trace {
		c := w.cond()
		rule, found := spec.Rule(op, c)
		if !found {
			skippedAt = i
			return
		}
		err, panicked := w.applySafe(op)
		if err == errSkip {
			skippedAt = i
			return
		}
		out := stepOutcome{err: err, panicked: panicked, want: rule.Want, phase: c.Phase}
		out.violation = rule.Want.check(err, panicked)
		if out.violation == "" && rule.Next != PhaseAny {
			if got := w.phase(); got != rule.Next {
				out.violation = fmt.Sprintf("landed in phase %s, want %s", got, rule.Next)
			}
		}
		steps = append(steps, out)
		if out.violation != "" {
			return
		}
	}
	return
}

// Run explores every spec-covered interleaving of the scenario up to
// MaxDepth, replaying each prefix on a fresh machine, and reports the
// exploration statistics plus any spec violations as counterexamples.
func Run(cfg Config) Result {
	spec := cfg.Spec
	if spec == nil {
		spec = DefaultSpec()
	}
	res := Result{Scenario: cfg.Scenario.Name}
	seen := make(map[uint64]bool)

	var dfs func(prefix []Op)
	dfs = func(prefix []Op) {
		for op := Op(0); op < NumOps; op++ {
			trace := append(append([]Op(nil), prefix...), op)
			w := newWorld(cfg.Scenario, cfg.Budget)
			steps, skippedAt := runTrace(spec, w, trace)
			res.Transitions += len(steps)
			if skippedAt >= 0 {
				res.Skipped++
				continue
			}
			res.Interleavings++
			last := steps[len(steps)-1]
			switch last.class() {
			case "ok":
				res.OKs++
			case "term":
				res.Terminations++
			case "refused":
				res.Refusals++
			}
			res.Digest = fnvFold(res.Digest, FormatTrace(cfg.Scenario.Name, trace))
			res.Digest = fnvFold(res.Digest, "="+last.class())
			if last.violation != "" {
				res.Violations = append(res.Violations, Counterexample{
					Scenario: cfg.Scenario.Name,
					Trace:    append([]Op(nil), trace...),
					Step:     len(trace) - 1,
					Phase:    last.phase,
					Got:      last.violation,
					Want:     last.want.String(),
				})
				continue
			}
			d := w.digest()
			res.Digest = fnvFold(res.Digest, fmt.Sprintf("@%x", d))
			res.LastSnapshot = metrics.Of(w.kernel.Clock).Snapshot()
			res.HasSnapshot = true
			if seen[d] {
				res.Pruned++
				continue
			}
			seen[d] = true
			res.States++
			if len(trace) < cfg.MaxDepth {
				dfs(trace)
			}
		}
	}
	dfs(nil)
	return res
}
