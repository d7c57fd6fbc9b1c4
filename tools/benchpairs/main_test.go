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
	hi := compare(metricDef{Name: "x", Better: "higher"}, a, b, 1)
	lo := compare(metricDef{Name: "x", Better: "lower"}, a, b, 1)
	if hi.wins != 2 || lo.wins != 1 || hi.pairs != 4 {
		t.Fatalf("wins: %d higher-better, %d lower-better over %d pairs; want 2 and 1 over 4", hi.wins, lo.wins, hi.pairs)
	}
	// a's readings do not spread, so any gap between medians exceeds it;
	// but b won only half the pairs, too few to call a gain.
	if hi.verdict != "no gain" || lo.verdict != "loss" || hi.change() != 5 {
		t.Fatalf("verdicts %q higher-better, %q lower-better, change %+.1f%%; want no gain, loss and +5%%",
			hi.verdict, lo.verdict, hi.change())
	}
	if c := compare(metricDef{Better: "higher"}, a, []float64{110, 101, 102, 120}, 1); c.verdict != "gain" {
		t.Fatalf("b won every pair beyond a's spread, called %q", c.verdict)
	}
	spreadA := []float64{90, 100, 110, 120}
	if c := compare(metricDef{Better: "higher"}, spreadA, []float64{100, 110, 120, 130}, 1); c.verdict != "no gain" {
		t.Fatalf("a gap of 10 within an IQR of 15 called %q: %+v", c.verdict, c)
	}
}

// TestLayoutSpreadBoundsTheVerdict: with one of four layouts slow, a's
// interquartile range is small but its layout spread is not, and a gap
// between the two is no gain; read as one layout, the same gap is.
func TestLayoutSpreadBoundsTheVerdict(t *testing.T) {
	a := []float64{100, 101, 102, 110, 100, 101, 102, 110}
	b := make([]float64, len(a))
	for i := range a {
		b[i] = a[i] + 5
	}
	if got := layoutSpread(a, 4); got != 10 {
		t.Fatalf("layout spread %g, want 10 (medians 100, 101, 102, 110)", got)
	}
	if got := layoutSpread(a, 1); got != 0 {
		t.Fatalf("one layout spreads %g, want 0", got)
	}
	d := metricDef{Name: "sim_req_per_s", Better: "higher"}
	four, one := compare(d, a, b, 4), compare(d, a, b, 1)
	if iqr := four.a.q3 - four.a.q1; iqr != 3.25 {
		t.Fatalf("a's IQR %g, want 3.25", iqr)
	}
	if four.verdict != "no gain" || four.aLay != 10 || four.bLay != 10 {
		t.Fatalf("a gap of 5 inside a layout spread of 10: %+v", four)
	}
	if one.verdict != "gain" {
		t.Fatalf("a gap of 5 beyond an IQR of 3.25 with no layout spread called %q", one.verdict)
	}
}

// TestMeasureRotatesLayouts: pair i runs the i-th binary of each side,
// modulo their count, and the report carries each side's layout spread.
func TestMeasureRotatesLayouts(t *testing.T) {
	f := &fakeBench{reqs: map[string][]float64{
		"A1": {100, 100}, "A2": {110, 110},
		"B1": {100, 100}, "B2": {110, 110},
	}}
	var out strings.Builder
	cfg := config{a: []string{"A1", "A2"}, b: []string{"B1", "B2"}, workload: "serve-resident", seed: 1, pairs: 4}
	if err := measure(&out, cfg, fakeDefs, f.run); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.calls, " "); got != "A1 B1 B2 A2 A1 B1 B2 A2" {
		t.Fatalf("run order %s", got)
	}
	for _, want := range []string{
		"4 pairs over 2 layout(s)",
		"a = A1 A2",
		"105 [100, 110]                       105 [100, 110]                       10       10          +0.0%   0/4  no gain",
		"per-layout medians of the host metrics, layouts 1 to 2:\n" +
			"  sim_req_per_s        a        100        110\n" +
			"                       b        100        110\n" +
			"\nsimulated metrics",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	// Each side's line reads its own binaries, layout by layout.
	f = &fakeBench{reqs: map[string][]float64{
		"A1": {100, 102}, "A2": {110, 110},
		"B1": {120, 130}, "B2": {90, 94},
	}}
	out.Reset()
	if err := measure(&out, cfg, fakeDefs, f.run); err != nil {
		t.Fatal(err)
	}
	if want := "  sim_req_per_s        a        101        110\n" +
		"                       b        125         92\n"; !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
}

// fakeBench answers like a benchmark binary: reqs is the host metric, and
// every run reports the same simulated cycles unless diverge names a run.
type fakeBench struct {
	calls   []string
	reqs    map[string][]float64 // successive readings per binary
	setup   map[string]float64   // setup_s per binary, 0 when absent
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
	out := fmt.Sprintf("warming up %s\n{\"correct\":%v,\"attempted\":12,\"failed\":2,\"metrics\":{"+
		"\"setup_s\":{\"value\":%g,\"unit\":\"s\"},"+
		"\"sim_req_per_s\":{\"value\":%g,\"unit\":\"req/s\"},\"p50_cycles\":{\"value\":%d,\"unit\":\"cycles\"}}}\n",
		strings.Join(args, " "), n != f.wrong, f.setup[bin], v, cycles)
	return []byte(out), nil
}

var fakeDefs = []metricDef{
	{Name: "sim_req_per_s", Unit: "req/s", Better: "higher"},
	{Name: "p50_cycles", Unit: "cycles", Better: "lower"},
}

func TestMeasureAlternatesOrderAndReports(t *testing.T) {
	f := &fakeBench{reqs: map[string][]float64{"A": {100, 102, 98}, "B": {120, 99, 125}}}
	var out strings.Builder
	cfg := config{a: []string{"A"}, b: []string{"B"}, workload: "kv-mixed", seed: 2, pairs: 3}
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
		"+20.0%   2/3  no gain",
		"p50_cycles           lower  1000 [1000, 1000]",
		"simulated metrics identical across all 6 runs: true",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "per-layout") {
		t.Errorf("one layout reported per-layout medians:\n%s", report)
	}
}

func TestMeasureFlagsDivergentAndIncorrectRuns(t *testing.T) {
	reqs := func() map[string][]float64 { return map[string][]float64{"A": {1, 1}, "B": {1, 1}} }
	var out strings.Builder
	cfg := config{a: []string{"A"}, b: []string{"B"}, workload: "w", pairs: 2}
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

// TestMeasureDerivesSetupPlusRun: with setup_s and sim_req_per_s declared,
// the report adds a setup+run_s row, judged like the others, so a change
// that moves host time from set-up into the run shows its net. Each run
// here serves 10 requests: A sets up in 0.5 s and runs them in 0.1 s, B in
// 0.1 s and 0.25 s.
func TestMeasureDerivesSetupPlusRun(t *testing.T) {
	f := &fakeBench{
		reqs:  map[string][]float64{"A": {100, 100, 100, 100}, "B": {40, 40, 40, 40}},
		setup: map[string]float64{"A": 0.5, "B": 0.1},
	}
	defs := append([]metricDef{{Name: "setup_s", Unit: "s", Better: "lower"}}, fakeDefs...)
	var out strings.Builder
	cfg := config{a: []string{"A"}, b: []string{"B"}, workload: "serve-resident", seed: 1, pairs: 4}
	if err := measure(&out, cfg, defs, f.run); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"setup_s              lower  0.5 [0.5, 0.5]",
		"-80.0%   4/4  gain\n",
		"sim_req_per_s        higher 100 [100, 100]",
		"-60.0%   0/4  loss\n",
		"setup+run_s          lower  0.6 [0.6, 0.6]                       0.35 [0.35, 0.35]",
		"-41.7%   4/4  gain (derived, not a BENCHMARK.json metric)\n",
		"simulated metrics identical across all 8 runs: true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	f = &fakeBench{reqs: map[string][]float64{"A": {1}, "B": {1}}}
	if err := measure(&out, config{a: []string{"A"}, b: []string{"B"}, workload: "w", pairs: 1}, fakeDefs, f.run); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "setup+run_s") {
		t.Errorf("derived a row without setup_s declared:\n%s", out.String())
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
