package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{xs: []float64{1, 2, 3, 4}, q1: 1.75, m: 2.5, q3: 3.25},
		{xs: []float64{4, 1, 3, 2, 5}, q1: 2, m: 3, q3: 4},
		{xs: []float64{7}, q1: 7, m: 7, q3: 7},
	}
	for _, c := range cases {
		s := spreadOf(c.xs)
		if s.q1 != c.q1 || s.median != c.m || s.q3 != c.q3 {
			t.Errorf("spreadOf(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.m, c.q3)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no readings is a number")
	}
}

func TestCompareCountsWinsByDirectionAndTiesForNeither(t *testing.T) {
	a := []float64{100, 100, 100, 100}
	b := []float64{110, 100, 90, 120}
	hi := compare(metricDef{Name: "x", Better: "higher"}, a, b)
	lo := compare(metricDef{Name: "x", Better: "lower"}, a, b)
	if hi.wins != 2 || lo.wins != 1 || hi.pairs != 4 {
		t.Fatalf("wins: %d higher-better, %d lower-better over %d pairs; want 2 and 1 over 4", hi.wins, lo.wins, hi.pairs)
	}
	// a's readings do not spread, so any gap between medians exceeds it.
	if !hi.gapBeyond || hi.change() != 5 {
		t.Fatalf("gap beyond a's IQR %v, change %+.1f%%; want true and +5%%", hi.gapBeyond, hi.change())
	}
	spreadA := []float64{90, 100, 110, 120}
	if c := compare(metricDef{Better: "higher"}, spreadA, []float64{100, 110, 120, 130}); c.gapBeyond {
		t.Fatalf("a gap of 10 exceeds an IQR of 15: %+v", c)
	}
}

// fakeBench answers like a benchmark binary: reqs is the host metric, and
// every run reports the same simulated cycles unless diverge names a run.
type fakeBench struct {
	calls   []string
	reqs    map[string][]float64 // successive readings per binary
	diverge int                  // 1-based run whose simulated cycles differ
	wrong   int                  // 1-based run that prints "correct":false
}

func (f *fakeBench) run(bin string, args []string) ([]byte, error) {
	f.calls = append(f.calls, bin)
	n := len(f.calls)
	v := f.reqs[bin][0]
	f.reqs[bin] = f.reqs[bin][1:]
	cycles := 1000
	if n == f.diverge {
		cycles = 1001
	}
	out := fmt.Sprintf("warming up %s\n{\"correct\":%v,\"attempted\":10,\"failed\":0,\"metrics\":{"+
		"\"sim_req_per_s\":{\"value\":%g,\"unit\":\"req/s\"},\"p50_cycles\":{\"value\":%d,\"unit\":\"cycles\"}}}\n",
		strings.Join(args, " "), n != f.wrong, v, cycles)
	return []byte(out), nil
}

var fakeDefs = []metricDef{
	{Name: "sim_req_per_s", Unit: "req/s", Better: "higher"},
	{Name: "p50_cycles", Unit: "cycles", Better: "lower"},
}

func TestMeasureAlternatesOrderAndReports(t *testing.T) {
	f := &fakeBench{reqs: map[string][]float64{"A": {100, 102, 98}, "B": {120, 99, 125}}}
	var out strings.Builder
	cfg := config{a: "A", b: "B", workload: "kv-mixed", seed: 2, pairs: 3}
	if err := measure(&out, cfg, fakeDefs, f.run); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.calls, ""); got != "ABBAAB" {
		t.Fatalf("run order %s, want ABBAAB", got)
	}
	report := out.String()
	for _, want := range []string{
		"sim_req_per_s        higher 100 [99, 101]",
		"120 [109.5, 122.5]",
		"+20.0%   2/3  yes",
		"p50_cycles           lower  1000 [1000, 1000]",
		"simulated metrics identical across all 6 runs: true",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}

func TestMeasureFlagsDivergentAndIncorrectRuns(t *testing.T) {
	reqs := func() map[string][]float64 { return map[string][]float64{"A": {1, 1}, "B": {1, 1}} }
	var out strings.Builder
	cfg := config{a: "A", b: "B", workload: "w", pairs: 2}
	f := &fakeBench{reqs: reqs(), diverge: 3}
	if err := measure(&out, cfg, fakeDefs, f.run); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "identical across all 4 runs: false") || !strings.Contains(out.String(), "p50_cycles=1001") {
		t.Fatalf("divergent simulated metric not reported:\n%s", out.String())
	}
	out.Reset()
	f = &fakeBench{reqs: reqs(), wrong: 2}
	if err := measure(&out, cfg, fakeDefs, f.run); !errors.Is(err, errIncorrect) {
		t.Fatalf("incorrect run gave %v, want errIncorrect", err)
	}
}

func TestLoadMetricsReadsTheBenchmarkDeclaration(t *testing.T) {
	defs, err := loadMetrics("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	better := map[string]string{}
	host := 0
	for _, d := range defs {
		better[d.Name] = d.Better
		if hostUnits[d.Unit] {
			host++
		}
	}
	if better["sim_req_per_s"] != "higher" || better["p99_cycles"] != "lower" || host != 3 {
		t.Fatalf("read %+v: want sim_req_per_s higher, p99_cycles lower, three host metrics", defs)
	}
	if _, err := parseResult([]byte("no json here\n")); err == nil {
		t.Fatal("a run without a result line parsed")
	}
}
