package main

import (
	"encoding/json"
	"os"
	"testing"
)

// testScale shrinks every workload to a few hundred requests per tenant,
// and testCells caps its cells; the code path is the one full-size runs
// take.
const (
	testScale = 0.01
	testCells = 2
)

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, name string, seed uint64, traced bool) *result {
	t.Helper()
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("workload %q not defined", name)
	}
	w.cells = min(w.cells, testCells)
	res, err := measure(w, seed, testScale, 0, traced)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range res.checks {
		if err != nil {
			t.Errorf("%s seed %d: check %s: %v", name, seed, checkNames[i], err)
		}
	}
	return res
}

// printed decodes a result line the way a reader of the output would.
func printed(t *testing.T, o object) (line struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}) {
	t.Helper()
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	return line
}

// TestMetricsPrintedAndDeterministic runs every workload twice on one seed,
// untraced and traced, and checks that each run prints every metric
// BENCHMARK.json names, with its unit, and that both runs (and the traced
// rep inside the second) simulate exactly the same thing.
func TestMetricsPrintedAndDeterministic(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command defines %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		a, b := run(t, w.Name, 1, false), run(t, w.Name, 1, true)
		untraced, traced := printed(t, a.line()), printed(t, b.line())
		if !untraced.Correct || untraced.Attempted < 1 {
			t.Errorf("%s: result line %+v", w.Name, untraced)
		}
		if len(untraced.Metrics) != len(s.EndToEnd) || len(traced.Metrics) != len(s.PerLayer) {
			t.Errorf("%s: printed %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
				w.Name, len(untraced.Metrics), len(traced.Metrics), len(s.EndToEnd), len(s.PerLayer))
		}
		for _, m := range s.EndToEnd {
			if got, ok := untraced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s printed as %+v (present %v), want unit %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range s.PerLayer {
			if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s printed as %+v (present %v), want unit %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}

		ja, err := json.Marshal(metricsObject(simulated(a.endToEnd)))
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(metricsObject(simulated(b.endToEnd)))
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Errorf("%s: simulated metrics differ between runs:\n%s\n%s", w.Name, ja, jb)
		}
		if a.reps[0].sim != b.reps[0].sim {
			t.Errorf("%s: simulated results differ between runs of one seed", w.Name)
		}
		if b.traced.sim != b.reps[0].sim {
			t.Errorf("%s: the traced rep's simulated results differ from the untraced reps'", w.Name)
		}
	}
}

// simulated drops the host-measured metrics, leaving those the simulation
// determines.
func simulated(ms []metric) []metric {
	var out []metric
	for _, m := range ms {
		switch m.name {
		case "setup_s", "sim_req_per_s", "peak_rss_mb":
		default:
			out = append(out, m)
		}
	}
	return out
}

func TestHeldOutSeedPassesChecks(t *testing.T) {
	for _, w := range workloads {
		res := run(t, w.name, 2, true)
		if s := res.reps[0].sim; s.served == 0 || s.served != s.attempted {
			t.Errorf("%s seed 2: served %d of %d", w.name, s.served, s.attempted)
		}
		if self, _ := res.traced.tr.selfTimes(); self[spRun] <= 0 || self[spHandler] <= 0 {
			t.Errorf("%s seed 2: self times run %d ns, handler %d ns", w.name, self[spRun], self[spHandler])
		}
	}
}
