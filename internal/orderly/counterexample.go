package orderly

import (
	"fmt"
	"strings"
)

// Counterexample is one replayable spec divergence: the scenario, the
// exact operation sequence, and what went wrong at the violating step.
// Its trace format ("scenario:op>op>op") round-trips through ParseTrace,
// so a failing exploration can be turned into a standalone regression
// test with GoSource.
type Counterexample struct {
	Scenario string
	Trace    []Op
	// Step indexes the violating operation within Trace.
	Step int
	// Phase is the lifecycle phase the violating op was applied in.
	Phase Phase
	// Got describes the observed divergence; Want the spec's expectation.
	Got  string
	Want string
}

// TraceString renders the machine-readable trace key.
func (c Counterexample) TraceString() string {
	return FormatTrace(c.Scenario, c.Trace)
}

// String renders the full human-readable counterexample.
func (c Counterexample) String() string {
	return fmt.Sprintf("%s @%d (%s, in %s): got %s, want %s",
		c.TraceString(), c.Step, c.Trace[c.Step], c.Phase, c.Got, c.Want)
}

// FormatTrace renders "scenario:op>op>op".
func FormatTrace(scenario string, trace []Op) string {
	names := make([]string, len(trace))
	for i, op := range trace {
		names[i] = op.String()
	}
	return scenario + ":" + strings.Join(names, ">")
}

// ParseTrace parses "scenario:op>op>op" back into a scenario (resolved
// from DefaultScenarios) and an operation sequence.
func ParseTrace(s string) (Scenario, []Op, error) {
	name, rest, found := strings.Cut(s, ":")
	if !found {
		return Scenario{}, nil, fmt.Errorf("orderly: trace %q has no scenario prefix", s)
	}
	sc, ok := ScenarioByName(name)
	if !ok {
		return Scenario{}, nil, fmt.Errorf("orderly: unknown scenario %q", name)
	}
	var trace []Op
	for _, tok := range strings.Split(rest, ">") {
		op, ok := opByName(strings.TrimSpace(tok))
		if !ok {
			return Scenario{}, nil, fmt.Errorf("orderly: unknown operation %q in trace %q", tok, s)
		}
		trace = append(trace, op)
	}
	if len(trace) == 0 {
		return Scenario{}, nil, fmt.Errorf("orderly: empty trace %q", s)
	}
	return sc, trace, nil
}

// Replay re-executes one trace on a fresh machine and judges every step
// against the spec. It returns nil when the implementation conforms, and
// the divergence as a counterexample otherwise. A trace that runs into a
// spec gap (no row, or a structurally impossible op) is reported as a
// counterexample too — a reproducer must never silently shorten.
func Replay(spec *Spec, sc Scenario, trace []Op) *Counterexample {
	if spec == nil {
		spec = DefaultSpec()
	}
	steps, skippedAt := runTrace(spec, newWorld(sc), trace)
	return judge(sc, trace, steps, skippedAt)
}

// judge turns one replay of trace, its executed steps and its skipped op,
// into Replay's verdict.
func judge(sc Scenario, trace []Op, steps []stepOutcome, skippedAt int) *Counterexample {
	if skippedAt >= 0 {
		return &Counterexample{
			Scenario: sc.Name,
			Trace:    append([]Op(nil), trace...),
			Step:     skippedAt,
			Phase:    PhaseAny,
			Got:      "operation not covered by the spec in this state",
			Want:     "a spec row (the trace no longer reaches the recorded state)",
		}
	}
	last := steps[len(steps)-1]
	if last.violation == "" {
		return nil
	}
	return &Counterexample{
		Scenario: sc.Name,
		Trace:    append([]Op(nil), trace...),
		Step:     len(steps) - 1,
		Phase:    last.phase,
		Got:      last.violation,
		Want:     last.want.String(),
	}
}

// GoSource renders the counterexample as a standalone failing Go test:
// drop the output into internal/orderly as a _test.go file and `go test`
// fails with this exact divergence until the implementation (or the spec)
// is fixed.
func (c Counterexample) GoSource() string {
	name := strings.NewReplacer("-", "_", ":", "_", ">", "_").Replace(c.TraceString())
	return fmt.Sprintf(`package orderly_test

// Code generated from an orderliness counterexample; edit the spec or the
// implementation, not this file.
//
// Divergence at generation time:
//	%s

import (
	"testing"

	"autarky/internal/orderly"
)

func TestCounterexample_%s(t *testing.T) {
	sc, trace, err := orderly.ParseTrace(%q)
	if err != nil {
		t.Fatal(err)
	}
	if cx := orderly.Replay(orderly.DefaultSpec(), sc, trace); cx != nil {
		t.Fatalf("spec violation: %%s", cx)
	}
}
`, c.String(), name, c.TraceString())
}
