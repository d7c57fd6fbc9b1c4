// Command benchpairs compares two builds of the benchmark on one workload
// the way a host-performance claim must be checked: it runs the parent's
// binaries (a) and the change's (b) in alternating pairs and compares every
// end-to-end metric BENCHMARK.json declares.
//
//	go run ./tools/benchpairs -a /tmp/parent/bench-1 -a /tmp/parent/bench-2 \
//		-b /tmp/change/bench-1 -b /tmp/change/bench-2 \
//		-workload kv-mixed -seed 1 -pairs 10 -seconds 0
//
// Code layout alone moves the host metrics by several percent, so each side
// may give K binaries of one tree built at K code layouts (repeat -a and -b
// K times; `make layouts` builds them). Pair i runs a_i and b_i, with i
// taken modulo K, so -pairs must be a multiple of K. All binaries run with
// the same -workload, -seed and -seconds. Pair i runs a first when i is even
// and b first when it is odd, so neither side always meets the machine the
// other one warmed.
//
// For each metric it prints each side's median and quartiles over all its
// runs, each side's layout spread (the range of its per-layout medians),
// the change between the medians, how many pairs b won (ties count for
// neither) and a verdict. With more than one layout it then prints each
// side's per-layout medians of every host metric, so a spread can be traced
// to the layout that made it. The verdict is "loss" when the gap between the
// medians exceeds both a's interquartile range and a's layout spread in the
// worse direction, "gain" when it does so in the better one and b won at
// least nine tenths of the pairs, and "no gain" otherwise. It also reports whether the simulated
// metrics — every metric whose unit is not a host measure (s, req/s, MB) —
// were identical in every run of both sides, as they must be when a change
// claims host time only.
//
// When the declaration has setup_s and sim_req_per_s, one more row, judged
// the same way, reads setup+run_s: a run's set-up time plus its run time
// per rep, (attempted − failed) / sim_req_per_s. It is derived here and is
// not a BENCHMARK.json metric; it shows the net of a change that moves host
// time between set-up and run.
//
// It builds nothing: build each side's binaries from its own checkout
// first. It exits 1 when a run fails or prints "correct":false, and 2 on
// bad usage.
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
	"slices"
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

// setupPlusRun is the derived row's metric (see the package comment).
var setupPlusRun = metricDef{Name: "setup+run_s", Unit: "s", Better: "lower"}

// value returns a run's reading of metric name, deriving setup+run_s from
// setup_s and sim_req_per_s.
func (r result) value(name string) (float64, error) {
	if name == setupPlusRun.Name {
		setup, err := r.value("setup_s")
		if err != nil {
			return 0, err
		}
		rate, err := r.value("sim_req_per_s")
		if err != nil || rate <= 0 {
			return math.Inf(1), err
		}
		return setup + float64(r.Attempted-r.Failed)/rate, nil
	}
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

// layoutMedians is the median of each layout's readings in xs, where
// reading i was taken with layout i mod k.
func layoutMedians(xs []float64, k int) []float64 {
	meds := make([]float64, k)
	for j := range meds {
		var own []float64
		for i := j; i < len(xs); i += k {
			own = append(own, xs[i])
		}
		meds[j] = spreadOf(own).median
	}
	return meds
}

// layoutSpread is the range of the per-layout medians of xs.
func layoutSpread(xs []float64, k int) float64 {
	meds := layoutMedians(xs, k)
	return slices.Max(meds) - slices.Min(meds)
}

// comparison is one metric over all pairs.
type comparison struct {
	def        metricDef
	a, b       spread
	aLay, bLay float64 // each side's layout spread
	wins       int     // pairs whose b reading is better than its a reading
	pairs      int     // pairs compared
	verdict    string  // "gain", "loss" or "no gain"
}

// compare judges metric d over pairs of readings a[i], b[i], pair i taken
// with layout i mod k on both sides.
func compare(d metricDef, a, b []float64, k int) comparison {
	c := comparison{def: d, a: spreadOf(a), b: spreadOf(b), pairs: len(a),
		aLay: layoutSpread(a, k), bLay: layoutSpread(b, k)}
	for i := range a {
		if d.Better == "higher" && b[i] > a[i] || d.Better == "lower" && b[i] < a[i] {
			c.wins++
		}
	}
	gap := c.b.median - c.a.median
	switch {
	case math.Abs(gap) <= c.a.q3-c.a.q1 || math.Abs(gap) <= c.aLay:
		c.verdict = "no gain"
	case (gap > 0) != (d.Better == "higher"):
		c.verdict = "loss"
	case 10*c.wins >= 9*c.pairs:
		c.verdict = "gain"
	default:
		c.verdict = "no gain"
	}
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
	a, b     []string // one binary per layout, the same count on each side
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
	k := len(cfg.a)
	rows := defs
	if declares(defs, "setup_s") && declares(defs, "sim_req_per_s") {
		rows = append(defs[:len(defs):len(defs)], setupPlusRun)
	}
	readings := map[string][2][]float64{}
	var sims []string
	incorrect := 0
	for i := 0; i < cfg.pairs; i++ {
		bins := [2]string{cfg.a[i%k], cfg.b[i%k]}
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		var pair [2]result
		for _, side := range order {
			bin := bins[side]
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
		for _, d := range rows {
			got := readings[d.Name]
			for side, r := range pair {
				v, err := r.value(d.Name)
				if err != nil {
					return fmt.Errorf("pair %d, %s: %w", i+1, bins[side], err)
				}
				got[side] = append(got[side], v)
			}
			readings[d.Name] = got
		}
		fmt.Fprintf(w, "pair %d/%d done (%s first)\n", i+1, cfg.pairs, [2]string{"a", "b"}[order[0]])
	}

	fmt.Fprintf(w, "\n%s seed %d, %d pairs over %d layout(s) at -seconds %g\n  a = %s\n  b = %s\n\n",
		cfg.workload, cfg.seed, cfg.pairs, k, cfg.seconds, strings.Join(cfg.a, " "), strings.Join(cfg.b, " "))
	fmt.Fprintf(w, "%-20s %-6s %-36s %-36s %-8s %-8s %8s %6s %s\n", "metric", "better",
		"a median [q1, q3]", "b median [q1, q3]", "a layout", "b layout", "change", "b won", "verdict")
	for _, d := range rows {
		r := readings[d.Name]
		c := compare(d, r[0], r[1], k)
		note := ""
		if d == setupPlusRun {
			note = " (derived, not a BENCHMARK.json metric)"
		}
		fmt.Fprintf(w, "%-20s %-6s %-36s %-36s %-8s %-8s %+7.1f%% %3d/%-2d %s%s\n", d.Name, d.Better,
			formatSpread(c.a), formatSpread(c.b), short(c.aLay), short(c.bLay), c.change(), c.wins, c.pairs, c.verdict, note)
	}
	if k > 1 {
		fmt.Fprintf(w, "\nper-layout medians of the host metrics, layouts 1 to %d:\n", k)
		for _, d := range rows {
			if !hostUnits[d.Unit] {
				continue
			}
			name := d.Name
			for side, xs := range readings[d.Name] {
				fmt.Fprintf(w, "  %-20s %s", name, [2]string{"a", "b"}[side])
				for _, m := range layoutMedians(xs, k) {
					fmt.Fprintf(w, " %10s", short(m))
				}
				fmt.Fprintln(w)
				name = ""
			}
		}
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

// declares reports whether defs has a metric called name.
func declares(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// binaries is a repeatable flag collecting one binary per layout.
type binaries []string

func (b *binaries) String() string { return strings.Join(*b, " ") }

func (b *binaries) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func formatSpread(s spread) string {
	return fmt.Sprintf("%s [%s, %s]", short(s.median), short(s.q1), short(s.q3))
}

// short prints a reading with about five significant digits.
func short(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

func main() {
	var cfg config
	flag.Var((*binaries)(&cfg.a), "a", "benchmark binary of the parent, one per layout (repeat; required)")
	flag.Var((*binaries)(&cfg.b), "b", "benchmark binary of the change, one per layout (repeat; as many as -a)")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (required)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "benchmark seed")
	flag.IntVar(&cfg.pairs, "pairs", 10, "alternating pairs of runs")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "the benchmark's -seconds, the same for both binaries")
	spec := flag.String("bench", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics")
	flag.Parse()
	if len(cfg.a) == 0 || len(cfg.a) != len(cfg.b) || cfg.workload == "" || cfg.pairs < 1 ||
		cfg.pairs%len(cfg.a) != 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -a PARENT_BIN [-a ...] -b CHANGE_BIN [-b ...] -workload W [-seed N] [-pairs N] [-seconds S] [-bench BENCHMARK.json]")
		fmt.Fprintln(os.Stderr, "  give -a and -b the same number of times; -pairs must be a multiple of that number")
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
