// Command benchdiff guards against silent performance regressions in the
// architectural model: it compares a freshly generated benchmark report
// (autarky-bench -format json) against the most recent committed baseline
// (BENCH_YYYY-MM-DD.json) and fails when any experiment's total simulated
// cycles grew by more than the threshold.
//
// Cycle counts are deterministic, so any growth is a real change in modeled
// cost — either an intentional model change (regenerate the baseline with
// `make bench` and commit the new BENCH file alongside the change) or an
// accidental regression (fix it). Experiments present only in the current
// report are new since the baseline and are skipped; experiments that
// disappeared fail the diff, because losing coverage silently is itself a
// regression.
//
// When both reports carry a wall_nanos stamp, the tool also prints the host
// wall-clock delta. That comparison is strictly informational: wall time
// measures the simulator's implementation (and the machine it ran on), not
// the simulated architecture, so it can never fail the diff — only
// simulated-cycle drift is a hard failure.
//
// Usage:
//
//	autarky-bench -format json > /tmp/bench.json
//	benchdiff /tmp/bench.json              # against newest BENCH_*.json
//	benchdiff -base BENCH_YYYY-MM-DD.json /tmp/bench.json
//	benchdiff -threshold 5 /tmp/bench.json
//
// Run via `make benchdiff`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// report mirrors the experiments.Report JSON surface down to the fields the
// diff needs: per-table titles and per-cell cycle totals.
type report struct {
	Tables []struct {
		Title   string `json:"title"`
		Metrics []struct {
			Cell    string `json:"cell"`
			Metrics struct {
				Cycles uint64 `json:"Cycles"`
			} `json:"metrics"`
		} `json:"metrics,omitempty"`
	} `json:"tables"`
	// WallNanos is the host wall-clock generation time, present in reports
	// since the stamp was added (0 in older baselines).
	WallNanos int64 `json:"wall_nanos"`
}

// load parses one report file into a title -> total-cycles map, also
// returning the report's wall-clock stamp (0 when absent).
func load(path string) (map[string]uint64, []string, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	totals := make(map[string]uint64, len(r.Tables))
	order := make([]string, 0, len(r.Tables))
	for _, t := range r.Tables {
		var sum uint64
		for _, cm := range t.Metrics {
			sum += cm.Metrics.Cycles
		}
		if _, dup := totals[t.Title]; !dup {
			order = append(order, t.Title)
		}
		totals[t.Title] += sum
	}
	return totals, order, r.WallNanos, nil
}

// latestBaseline returns the lexicographically last BENCH_*.json — the
// date-stamped naming makes that the newest committed baseline.
func latestBaseline() (string, error) {
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(matches) == 0 {
		return "", fmt.Errorf("no committed BENCH_*.json baseline found (run `make bench` and commit the result)")
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

func main() {
	base := flag.String("base", "", "baseline report (default: newest BENCH_*.json)")
	threshold := flag.Float64("threshold", 10, "maximum tolerated per-experiment cycle growth, percent")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-base FILE] [-threshold PCT] CURRENT.json")
		os.Exit(2)
	}

	basePath := *base
	if basePath == "" {
		var err error
		if basePath, err = latestBaseline(); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	baseTotals, baseOrder, baseWall, err := load(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	curTotals, _, curWall, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	fmt.Printf("baseline: %s (threshold +%.0f%%)\n", basePath, *threshold)
	failures := 0
	for _, title := range baseOrder {
		b := baseTotals[title]
		c, ok := curTotals[title]
		if !ok {
			fmt.Printf("MISSING  %-60.60s  (in baseline, absent from current report)\n", title)
			failures++
			continue
		}
		delta := 100 * (float64(c) - float64(b)) / float64(b)
		switch {
		case b == 0:
			fmt.Printf("skip     %-60.60s  baseline reports zero cycles\n", title)
		case delta > *threshold:
			fmt.Printf("REGRESS  %-60.60s  %d -> %d cycles (%+.1f%%)\n", title, b, c, delta)
			failures++
		default:
			fmt.Printf("ok       %-60.60s  %d -> %d cycles (%+.1f%%)\n", title, b, c, delta)
		}
	}
	for title := range curTotals {
		if _, ok := baseTotals[title]; !ok {
			fmt.Printf("new      %-60.60s  (not in baseline; commit a fresh `make bench` to track it)\n", title)
		}
	}

	// Wall-clock comparison: informational only. Wall time varies with the
	// host, the Go version and concurrency, so it never fails the diff.
	switch {
	case baseWall > 0 && curWall > 0:
		delta := 100 * (float64(curWall) - float64(baseWall)) / float64(baseWall)
		fmt.Printf("wall     %.2fs -> %.2fs (%+.1f%%, informational — never fails the diff)\n",
			float64(baseWall)/1e9, float64(curWall)/1e9, delta)
	case curWall > 0:
		fmt.Printf("wall     %.2fs (baseline has no wall_nanos stamp; refresh with `make bench`)\n",
			float64(curWall)/1e9)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d experiment(s) regressed or went missing\n", failures)
		os.Exit(1)
	}
}
