// Command benchpairs compares two builds of the benchmark on one workload
// the way a host-performance claim must be checked: it runs binary a (the
// parent) and binary b (the change) in alternating pairs and compares every
// end-to-end metric BENCHMARK.json declares.
//
//	go run ./tools/benchpairs -a /tmp/bench-parent -b /tmp/bench-change \
//		-workload kv-mixed -seed 1 -pairs 10 -seconds 0
//
// Both binaries run with the same -workload, -seed and -seconds. Pair i runs
// a first when i is even and b first when it is odd, so neither side always
// meets the machine the other one warmed. For each metric it prints each
// side's median and quartiles, how many pairs b won (ties count for
// neither), and whether the gap between the medians exceeds a's
// interquartile range. It also reports whether the simulated metrics —
// every metric whose unit is not a host measure (s, req/s, MB) — were
// identical in every run of both binaries, as they must be when a change
// claims host time only.
//
// It builds nothing: build each side's binary from its own checkout first,
// for example with `cd benchmark && go build -o /tmp/bench-change .`. It
// exits 1 when a run fails or prints "correct":false, and 2 on bad usage.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
}

// hostUnits are the units of metrics measured on the host; every other
// metric is simulated and must not differ between runs.
var hostUnits = map[string]bool{"s": true, "req/s": true, "MB": true}

// loadMetrics reads the end-to-end metrics from a BENCHMARK.json.
func loadMetrics(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end metrics", path)
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s is better %q, want higher or lower", path, m.Name, m.Better)
		}
	}
	return spec.EndToEnd, nil
}

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult reads a run's result from its standard output: the last
// non-empty line.
func parseResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("no result line (last line %q): %w", last, err)
	}
	return r, nil
}

// value returns a run's reading of metric name.
func (r result) value(name string) (float64, error) {
	m, ok := r.Metrics[name]
	if !ok {
		return 0, fmt.Errorf("result has no metric %s", name)
	}
	return m.Value, nil
}

// simulated is the part of a result that must not differ between runs:
// the request counts and every simulated metric, formatted exactly.
func simulated(r result, defs []metricDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted=%d failed=%d", r.Attempted, r.Failed)
	for _, d := range defs {
		if !hostUnits[d.Unit] {
			fmt.Fprintf(&b, " %s=%s", d.Name, strconv.FormatFloat(r.Metrics[d.Name].Value, 'g', -1, 64))
		}
	}
	return b.String()
}

// quantile is the q-quantile of sorted xs, interpolating linearly between
// the closest ranks (the usual definition for small samples).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// spread is one side's median and quartiles.
type spread struct{ q1, median, q3 float64 }

func spreadOf(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{q1: quantile(s, 0.25), median: quantile(s, 0.5), q3: quantile(s, 0.75)}
}

// comparison is one metric over all pairs.
type comparison struct {
	def       metricDef
	a, b      spread
	wins      int  // pairs whose b reading is better than its a reading
	pairs     int  // pairs compared
	gapBeyond bool // |median b - median a| > a's interquartile range
}

// compare judges metric d over pairs of readings a[i], b[i].
func compare(d metricDef, a, b []float64) comparison {
	c := comparison{def: d, a: spreadOf(a), b: spreadOf(b), pairs: len(a)}
	for i := range a {
		if d.Better == "higher" && b[i] > a[i] || d.Better == "lower" && b[i] < a[i] {
			c.wins++
		}
	}
	c.gapBeyond = math.Abs(c.b.median-c.a.median) > c.a.q3-c.a.q1
	return c
}

// change is the relative move of b's median from a's, in percent.
func (c comparison) change() float64 {
	if c.a.median == 0 {
		return 0
	}
	return 100 * (c.b.median - c.a.median) / c.a.median
}

// runner runs one benchmark binary and returns its standard output.
type runner func(bin string, args []string) ([]byte, error)

func execRun(bin string, args []string) ([]byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s: %w: %s", bin, err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// config is one measurement's flags.
type config struct {
	a, b     string
	workload string
	seed     uint64
	pairs    int
	seconds  float64
}

// errIncorrect marks a run that printed "correct":false.
var errIncorrect = errors.New(`a run printed "correct":false`)

// measure runs the pairs and writes the report to w. It returns
// errIncorrect (after the report) when any run failed its checks, and any
// other error when a run could not be read at all.
func measure(w io.Writer, cfg config, defs []metricDef, run runner) error {
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
	readings := map[string][2][]float64{}
	var sims []string
	incorrect := 0
	for i := 0; i < cfg.pairs; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		var pair [2]result
		for _, side := range order {
			bin := [2]string{cfg.a, cfg.b}[side]
			out, err := run(bin, args)
			if err != nil {
				return fmt.Errorf("pair %d: %w", i+1, err)
			}
			r, err := parseResult(out)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, bin, err)
			}
			if !r.Correct {
				incorrect++
			}
			pair[side] = r
			sims = append(sims, simulated(r, defs))
		}
		for _, d := range defs {
			got := readings[d.Name]
			for side, r := range pair {
				v, err := r.value(d.Name)
				if err != nil {
					return fmt.Errorf("pair %d, %s: %w", i+1, [2]string{cfg.a, cfg.b}[side], err)
				}
				got[side] = append(got[side], v)
			}
			readings[d.Name] = got
		}
		fmt.Fprintf(w, "pair %d/%d done (%s first)\n", i+1, cfg.pairs, [2]string{"a", "b"}[order[0]])
	}

	fmt.Fprintf(w, "\n%s seed %d, %d pairs at -seconds %g\n  a = %s\n  b = %s\n\n",
		cfg.workload, cfg.seed, cfg.pairs, cfg.seconds, cfg.a, cfg.b)
	fmt.Fprintf(w, "%-20s %-6s %-36s %-36s %8s %6s %s\n", "metric", "better",
		"a median [q1, q3]", "b median [q1, q3]", "change", "b won", "gap > a IQR")
	for _, d := range defs {
		r := readings[d.Name]
		c := compare(d, r[0], r[1])
		gap := "no"
		if c.gapBeyond {
			gap = "yes"
		}
		fmt.Fprintf(w, "%-20s %-6s %-36s %-36s %+7.1f%% %3d/%-2d %s\n", d.Name, d.Better,
			formatSpread(c.a), formatSpread(c.b), c.change(), c.wins, c.pairs, gap)
	}
	identical := true
	for _, s := range sims[1:] {
		identical = identical && s == sims[0]
	}
	fmt.Fprintf(w, "\nsimulated metrics identical across all %d runs: %v\n", len(sims), identical)
	if !identical {
		for i, s := range sims {
			fmt.Fprintf(w, "  run %d: %s\n", i+1, s)
		}
	}
	if incorrect > 0 {
		fmt.Fprintf(w, "%d run(s) printed \"correct\":false\n", incorrect)
		return errIncorrect
	}
	return nil
}

func formatSpread(s spread) string {
	return fmt.Sprintf("%s [%s, %s]", short(s.median), short(s.q1), short(s.q3))
}

// short prints a reading with about five significant digits.
func short(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

func main() {
	var cfg config
	flag.StringVar(&cfg.a, "a", "", "benchmark binary of the parent (required)")
	flag.StringVar(&cfg.b, "b", "", "benchmark binary of the change (required)")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (required)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "benchmark seed")
	flag.IntVar(&cfg.pairs, "pairs", 10, "alternating pairs of runs")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "the benchmark's -seconds, the same for both binaries")
	spec := flag.String("bench", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics")
	flag.Parse()
	if cfg.a == "" || cfg.b == "" || cfg.workload == "" || cfg.pairs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -a PARENT_BIN -b CHANGE_BIN -workload W [-seed N] [-pairs N] [-seconds S] [-bench BENCHMARK.json]")
		os.Exit(2)
	}
	defs, err := loadMetrics(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(2)
	}
	if err := measure(os.Stdout, cfg, defs, execRun); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}
