package orderly

import (
	"reflect"
	"strings"
	"testing"

	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/trace"
)

// checkDepth keeps the unit tests fast; the e13 experiment explores the
// full default depth.
const checkDepth = 4

// TestSpecConformance: the implementation satisfies the orderliness model
// on every scenario — no violations, no panics, and a meaningful amount of
// exploration actually happened.
func TestSpecConformance(t *testing.T) {
	for _, sc := range DefaultScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := Run(Config{Scenario: sc, MaxDepth: checkDepth})
			for _, v := range r.Violations {
				t.Errorf("violation: %s", v)
			}
			if r.Interleavings < 50 {
				t.Fatalf("only %d interleavings explored — executor wired wrong?", r.Interleavings)
			}
			if r.States == 0 || r.Transitions == 0 {
				t.Fatalf("no states/transitions recorded: %+v", r)
			}
			if !r.HasSnapshot {
				t.Fatalf("no metrics snapshot recorded")
			}
		})
	}
}

// TestCheckerDeterministic: two explorations of the same configuration
// produce identical results — including the order-sensitive trace digest —
// and sharding by first op partitions the exploration exactly.
func TestCheckerDeterministic(t *testing.T) {
	sc, _ := ScenarioByName("sp-sgx1")
	a := Run(Config{Scenario: sc, MaxDepth: checkDepth})
	b := Run(Config{Scenario: sc, MaxDepth: checkDepth})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rerun diverged:\n%+v\n%+v", a, b)
	}
	// A deeper exploration strictly extends the shallower one's trace set.
	c := Run(Config{Scenario: sc, MaxDepth: checkDepth + 1})
	if c.Interleavings <= a.Interleavings {
		t.Fatalf("depth %d explored %d interleavings, depth %d only %d",
			checkDepth, a.Interleavings, checkDepth+1, c.Interleavings)
	}
}

// mutate finds the first rule matching pred and rewrites its expectation,
// returning the mutated clone.
func mutate(t *testing.T, pred func(Rule) bool, want Want) *Spec {
	t.Helper()
	s := DefaultSpec().Clone()
	for i, r := range s.Rules {
		if pred(r) {
			s.Rules[i].Want = want
			s.Rules[i].Next = PhaseAny
			return s
		}
	}
	t.Fatalf("no rule matched the mutation predicate")
	return nil
}

func hasPhase(r Rule, p Phase) bool {
	for _, ph := range r.Phases {
		if ph == p {
			return true
		}
	}
	return false
}

// TestMutationYieldsCounterexample: every injected spec violation is found
// by the checker and comes back as a counterexample that (a) replays as a
// failure under the broken spec, (b) replays clean under the real spec —
// proving the implementation, not the checker, defines the baseline — and
// (c) renders as a standalone failing Go test.
func TestMutationYieldsCounterexample(t *testing.T) {
	cases := []struct {
		name     string
		scenario string
		spec     *Spec
	}{
		{
			// Claim double-destroy silently succeeds.
			name:     "destroy-absent-ok",
			scenario: "sp-sgx1",
			spec: mutate(t, func(r Rule) bool {
				return r.Op == OpDestroy && hasPhase(r, PhaseAbsent)
			}, ok()),
		},
		{
			// Claim running a suspended enclave works.
			name:     "run-suspended-ok",
			scenario: "legacy",
			spec: mutate(t, func(r Rule) bool {
				return r.Op == OpRun && hasPhase(r, PhaseSuspended)
			}, ok()),
		},
		{
			// Claim Autarky resumes over a tampered pinned page.
			name:     "resume-tampered-ok",
			scenario: "sp-sgx1-roomy",
			spec: mutate(t, func(r Rule) bool {
				return r.Op == OpResume && hasPhase(r, PhaseSuspended) &&
					r.SelfPaging == Yes && r.TamperedPinned == Yes
			}, ok()),
		},
		{
			// Claim the wrong sentinel for run-before-load.
			name:     "run-absent-wrong-sentinel",
			scenario: "legacy",
			spec: mutate(t, func(r Rule) bool {
				return r.Op == OpRun && hasPhase(r, PhaseAbsent)
			}, is(hostos.ErrSuspended)),
		},
		{
			// Claim a failover without a death certificate succeeds — the
			// split-brain restore the supervisor discipline must refuse.
			name:     "failover-premature-ok",
			scenario: "sp-crash",
			spec: mutate(t, func(r Rule) bool {
				return r.Op == OpFailover && hasPhase(r, PhaseCrashed) &&
					r.WatchdogExpired == No
			}, ok()),
		},
		{
			// Claim a failover onto a host that is still beating succeeds.
			name:     "failover-splitbrain-ok",
			scenario: "sp-crash",
			spec: mutate(t, func(r Rule) bool {
				return r.Op == OpFailover && hasPhase(r, PhaseLoaded)
			}, ok()),
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sc, _ := ScenarioByName(tc.scenario)
			r := Run(Config{Scenario: sc, MaxDepth: checkDepth, Spec: tc.spec})
			if len(r.Violations) == 0 {
				t.Fatalf("mutated spec produced no violations")
			}
			cx := r.Violations[0]
			if got := Replay(tc.spec, sc, cx.Trace); got == nil {
				t.Fatalf("counterexample %s does not replay under the mutated spec", cx)
			}
			if got := Replay(nil, sc, cx.Trace); got != nil {
				t.Fatalf("counterexample %s also fails under the real spec: %s", cx, got)
			}
			src := cx.GoSource()
			for _, frag := range []string{"package orderly_test", "func TestCounterexample_", cx.TraceString()} {
				if !strings.Contains(src, frag) {
					t.Fatalf("GoSource missing %q:\n%s", frag, src)
				}
			}
		})
	}
}

// TestParseTraceRoundTrip: the counterexample trace format survives a
// format → parse → format cycle, and rejects garbage.
func TestParseTraceRoundTrip(t *testing.T) {
	in := "sp-sgx1:load>suspend>tamper>resume"
	sc, ops, err := ParseTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "sp-sgx1" || len(ops) != 4 || ops[0] != OpLoad || ops[3] != OpResume {
		t.Fatalf("parsed %q into %s %v", in, sc.Name, ops)
	}
	if got := FormatTrace(sc.Name, ops); got != in {
		t.Fatalf("round trip: %q != %q", got, in)
	}
	for _, bad := range []string{"", "noscenario", "nope:load", "legacy:frobnicate", "legacy:"} {
		if _, _, err := ParseTrace(bad); err == nil {
			t.Fatalf("ParseTrace(%q) accepted", bad)
		}
	}
}

// TestReplayConformingTrace: a legal ordering replays clean, and the
// documented attack ordering (suspend, tamper a pinned page, resume)
// replays clean too — the refusal IS the specified behaviour.
func TestReplayConformingTrace(t *testing.T) {
	for _, trace := range []string{
		"legacy:load>run>suspend>resume>run",
		"sp-sgx1-roomy:load>suspend>tamper-pinned>resume",
		"sp-sgx1:load>tamper>run>destroy>load",
		"sp-sgx1-replay:load>run>tamper>run",
		// The supervised crash lifecycle: checkpoint, crash, two missed
		// beats (the death certificate), failover, and the recovered
		// incarnation runs.
		"sp-crash:load>checkpoint>crash>heartbeat>heartbeat>failover>run",
		// A premature failover is refused (one missed beat is suspicion,
		// not death); the next miss completes the certificate.
		"sp-crash:load>checkpoint>crash>heartbeat>failover>heartbeat>failover",
		// Failure detection interleaved with migration: the crash lands on
		// the adopted incarnation and recovery goes through its checkpoint.
		"sp-crash:load>quiesce>adopt>checkpoint>crash>heartbeat>heartbeat>failover",
	} {
		sc, ops, err := ParseTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		if cx := Replay(nil, sc, ops); cx != nil {
			t.Errorf("conforming trace %q reported: %s", trace, cx)
		}
	}
}

// TestExecuteTraceJudgesItsOwnRun: ExecuteTrace runs a trace once and
// reaches Replay's verdict from that run — clean for conforming traces, the
// same counterexample for a spec gap — and records what the OS saw.
func TestExecuteTraceJudgesItsOwnRun(t *testing.T) {
	for _, tr := range []string{
		"legacy:load>run>suspend>resume>run",
		"sp-sgx1-roomy:load>suspend>tamper-pinned>resume",
		"sp-sgx1-replay:load>run>tamper>run",
		"legacy:load>quiesce",
	} {
		sc, ops, err := ParseTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		steps, cx, snap, seen := ExecuteTrace(sc, ops)
		want := Replay(nil, sc, ops)
		if (cx == nil) != (want == nil) || (cx != nil && cx.String() != want.String()) {
			t.Errorf("%s: ExecuteTrace judged %v, Replay %v", tr, cx, want)
		}
		if cx == nil && len(steps) != len(ops) {
			t.Errorf("%s: %d steps for %d ops", tr, len(steps), len(ops))
		}
		if err := snap.Check(); err != nil {
			t.Errorf("%s: %v", tr, err)
		}
		if seen == nil {
			t.Fatalf("%s: no record", tr)
		}
	}

	// The rollback ordering: the stale blob terminates the enclave, and
	// every fault the OS saw on the way carries only the enclave base.
	sc, ops, _ := ParseTrace("sp-sgx1-replay:load>run>tamper>run")
	steps, _, _, seen := ExecuteTrace(sc, ops)
	if last := steps[len(steps)-1]; last.Class != "term" {
		t.Fatalf("rollback ended %q, want term", last.Class)
	}
	faults := seen.Only(trace.KindFault)
	if faults.Len() == 0 || seen.Only(trace.KindPageIn).Len() == 0 {
		t.Fatalf("record holds %d faults, %d page-ins", faults.Len(), seen.Only(trace.KindPageIn).Len())
	}
	for _, ev := range faults.Events {
		if ev.Addr != libos.DefaultBase {
			t.Fatalf("OS saw a fault at %s, want the masked base %s", ev.Addr, libos.DefaultBase)
		}
	}
}
