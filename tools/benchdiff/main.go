// Command benchdiff guards the architectural model against silent drift: it
// compares a freshly generated benchmark report (autarky-bench -format json)
// against the most recent committed baseline (BENCH_YYYY-MM-DD.json) and
// fails when any experiment's total simulated cycles differ from the
// baseline's, by one cycle or more, in either direction.
//
// Cycle counts are deterministic, so any difference is a real change in
// modeled cost — either an intentional model change (regenerate the baseline
// with `make bench` and commit the new BENCH file alongside the change) or an
// accidental one (fix it). A shrink fails as surely as a growth: a model
// that got cheaper without a reason is as wrong as one that got dearer.
// Experiments present only in the current report are new since the baseline
// and are listed but not compared; experiments that disappeared fail the
// diff, because losing coverage silently is itself a regression. An
// experiment whose baseline total is zero has nothing to compare and is
// skipped.
//
// When both reports carry a wall_nanos stamp, the tool also prints the host
// wall-clock delta. That comparison is strictly informational: wall time
// measures the simulator's implementation (and the machine it ran on), not
// the simulated architecture, so it can never fail the diff.
//
// Usage:
//
//	autarky-bench -format json > /tmp/bench.json
//	benchdiff /tmp/bench.json              # against newest BENCH_*.json
//	benchdiff -base BENCH_YYYY-MM-DD.json /tmp/bench.json
//
// Run via `make benchdiff`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
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

// totals is one report reduced to what the diff compares: each
// experiment's total cycles, the experiments in report order, and the
// wall-clock stamp (0 when absent).
type totals struct {
	cycles map[string]uint64
	order  []string
	wall   int64
}

// load parses one report file into its totals.
func load(path string) (totals, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return totals{}, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return totals{}, fmt.Errorf("%s: %w", path, err)
	}
	t := totals{cycles: make(map[string]uint64, len(r.Tables)), wall: r.WallNanos}
	for _, tab := range r.Tables {
		var sum uint64
		for _, cm := range tab.Metrics {
			sum += cm.Metrics.Cycles
		}
		if _, dup := t.cycles[tab.Title]; !dup {
			t.order = append(t.order, tab.Title)
		}
		t.cycles[tab.Title] += sum
	}
	return t, nil
}

// latestBaseline returns the lexicographically last BENCH_*.json in dir —
// the date-stamped naming makes that the newest committed baseline.
func latestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		return "", fmt.Errorf("no committed BENCH_*.json baseline found (run `make bench` and commit the result)")
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// diff prints one line per experiment of base, comparing its total with
// cur's, then cur's new experiments and the wall-clock note, and returns
// how many experiments changed or went missing.
func diff(w io.Writer, base, cur totals) (failures int) {
	for _, title := range base.order {
		b := base.cycles[title]
		c, ok := cur.cycles[title]
		switch {
		case !ok:
			fmt.Fprintf(w, "MISSING  %-60.60s  (in baseline, absent from current report)\n", title)
			failures++
		case b == 0:
			fmt.Fprintf(w, "skip     %-60.60s  baseline reports zero cycles\n", title)
		default:
			status := "ok"
			if c != b {
				status = "CHANGED"
				failures++
			}
			fmt.Fprintf(w, "%-8s %-60.60s  %d -> %d cycles (%+d)\n", status, title, b, c, int64(c-b))
		}
	}
	var added []string
	for title := range cur.cycles {
		if _, ok := base.cycles[title]; !ok {
			added = append(added, title)
		}
	}
	sort.Strings(added)
	for _, title := range added {
		fmt.Fprintf(w, "new      %-60.60s  (not in baseline; commit a fresh `make bench` to track it)\n", title)
	}

	// Wall-clock comparison: informational only. Wall time varies with the
	// host, the Go version and concurrency, so it never fails the diff.
	switch {
	case base.wall > 0 && cur.wall > 0:
		delta := 100 * (float64(cur.wall) - float64(base.wall)) / float64(base.wall)
		fmt.Fprintf(w, "wall     %.2fs -> %.2fs (%+.1f%%, informational — never fails the diff)\n",
			float64(base.wall)/1e9, float64(cur.wall)/1e9, delta)
	case cur.wall > 0:
		fmt.Fprintf(w, "wall     %.2fs (baseline has no wall_nanos stamp; refresh with `make bench`)\n",
			float64(cur.wall)/1e9)
	}
	return failures
}

// run is the command: it compares the report named by args against the
// baseline, looked up in dir unless -base names one, and returns the exit
// status — 0 when every total matches, 1 when one differs or is missing, 2
// on a usage or input error.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "baseline report (default: newest BENCH_*.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchdiff [-base FILE] CURRENT.json")
		return 2
	}
	if *basePath == "" {
		var err error
		if *basePath, err = latestBaseline(dir); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	cur, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	fmt.Fprintf(stdout, "baseline: %s (exact: any change in total cycles fails)\n", *basePath)
	if failures := diff(stdout, base, cur); failures > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d experiment(s) changed or went missing\n", failures)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}
