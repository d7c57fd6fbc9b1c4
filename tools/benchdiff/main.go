// Command benchdiff guards the architectural model against silent drift: it
// compares a freshly generated benchmark report (autarky-bench -format json)
// against the most recent committed baseline (BENCH_YYYY-MM-DD.json) and
// fails when any experiment's simulated output differs from the baseline's
// in any way: its note, header or rows, or any cell's cycles, attribution
// or counters. A row can change while the experiment's total cycles stay
// put, so the totals alone are not enough.
//
// Simulated output is deterministic, so any difference is a real change in
// the model — either an intentional one (regenerate the baseline with
// `make bench` and commit the new BENCH file alongside the change) or an
// accidental one (fix it). A shrink fails as surely as a growth: a model
// that got cheaper without a reason is as wrong as one that got dearer.
// Each experiment gets one line with its total cycles, their delta and, for
// a changed one, the first row or cell value that differs. Experiments are
// matched by title: those present only in the current report are new since
// the baseline and are listed but not compared; experiments that
// disappeared fail the diff, because losing coverage silently is itself a
// regression. An experiment whose baseline total is zero is skipped.
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
	"slices"
	"sort"
)

// table mirrors one experiments.Table of the JSON report: everything it
// prints and the per-cell machine metrics behind it.
type table struct {
	Title   string     `json:"title"`
	Note    string     `json:"note"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Metrics []cell     `json:"metrics"`
}

// cell mirrors one experiments.CellMetrics.
type cell struct {
	Cell    string `json:"cell"`
	Metrics struct {
		Cycles      uint64            `json:"cycles"`
		Attribution map[string]uint64 `json:"attribution"`
		Counters    map[string]uint64 `json:"counters"`
	} `json:"metrics"`
}

// cycles is the table's total simulated cycles across its cells.
func (t *table) cycles() uint64 {
	var sum uint64
	for _, c := range t.Metrics {
		sum += c.Metrics.Cycles
	}
	return sum
}

// report is one report file: its tables, indexed by title, in report order,
// and the wall-clock stamp (0 when absent).
type report struct {
	tables map[string]*table
	order  []string
	wall   int64
}

// load parses one report file. Tables are matched by title, so a report
// with two tables of one title is refused.
func load(path string) (report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var raw struct {
		Tables []*table `json:"tables"`
		// WallNanos is the host wall-clock generation time, present in
		// reports since the stamp was added (0 in older baselines).
		WallNanos int64 `json:"wall_nanos"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	r := report{tables: make(map[string]*table, len(raw.Tables)), wall: raw.WallNanos}
	for _, t := range raw.Tables {
		if _, dup := r.tables[t.Title]; dup {
			return report{}, fmt.Errorf("%s: two tables titled %q", path, t.Title)
		}
		r.tables[t.Title] = t
		r.order = append(r.order, t.Title)
	}
	return r, nil
}

// firstDiff describes the first difference between two versions of one
// experiment's table, in the order note, header, rows, cells, or returns ""
// when they are identical.
func firstDiff(b, c *table) string {
	if b.Note != c.Note {
		return fmt.Sprintf("note %q -> %q", b.Note, c.Note)
	}
	if d := firstSliceDiff("header", b.Header, c.Header); d != "" {
		return d
	}
	if len(b.Rows) != len(c.Rows) {
		return fmt.Sprintf("%d -> %d rows", len(b.Rows), len(c.Rows))
	}
	for i := range b.Rows {
		label := fmt.Sprintf("row %d", i+1)
		if len(b.Rows[i]) > 0 {
			label = fmt.Sprintf("row %d %q", i+1, b.Rows[i][0])
		}
		if d := firstSliceDiff(label, b.Rows[i], c.Rows[i], b.Header...); d != "" {
			return d
		}
	}
	if len(b.Metrics) != len(c.Metrics) {
		return fmt.Sprintf("%d -> %d cells", len(b.Metrics), len(c.Metrics))
	}
	for i := range b.Metrics {
		bc, cc := &b.Metrics[i], &c.Metrics[i]
		if bc.Cell != cc.Cell {
			return fmt.Sprintf("cell %d %q -> %q", i+1, bc.Cell, cc.Cell)
		}
		if bm, cm := bc.Metrics.Cycles, cc.Metrics.Cycles; bm != cm {
			return fmt.Sprintf("cell %s cycles %d -> %d", bc.Cell, bm, cm)
		}
		if d := firstMapDiff("cell "+bc.Cell+" attribution", bc.Metrics.Attribution, cc.Metrics.Attribution); d != "" {
			return d
		}
		if d := firstMapDiff("cell "+bc.Cell+" counter", bc.Metrics.Counters, cc.Metrics.Counters); d != "" {
			return d
		}
	}
	return ""
}

// firstSliceDiff describes the first entry where b and c differ, naming it
// by its column in header when there is one, or returns "".
func firstSliceDiff(what string, b, c []string, header ...string) string {
	for j := 0; j < max(len(b), len(c)); j++ {
		if j < len(b) && j < len(c) && b[j] == c[j] {
			continue
		}
		col := fmt.Sprintf("column %d", j+1)
		if j < len(header) {
			col = header[j]
		}
		return fmt.Sprintf("%s, %s: %s -> %s", what, col, entry(b, j), entry(c, j))
	}
	return ""
}

// entry quotes s[j], or says it is absent.
func entry(s []string, j int) string {
	if j < len(s) {
		return fmt.Sprintf("%q", s[j])
	}
	return "(none)"
}

// firstMapDiff describes the first key, in sorted order, whose value
// differs between b and c (a missing key reads as zero), or returns "".
func firstMapDiff(what string, b, c map[string]uint64) string {
	keys := make([]string, 0, len(b)+len(c))
	for k := range b {
		keys = append(keys, k)
	}
	for k := range c {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		if b[k] != c[k] {
			return fmt.Sprintf("%s %s %d -> %d", what, k, b[k], c[k])
		}
	}
	return ""
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

// diff prints one line per experiment of base, comparing it with cur's,
// then cur's new experiments and the wall-clock note, and returns how many
// experiments changed or went missing.
func diff(w io.Writer, base, cur report) (failures int) {
	for _, title := range base.order {
		b := base.tables[title]
		c, ok := cur.tables[title]
		switch {
		case !ok:
			fmt.Fprintf(w, "MISSING  %-60.60s  (in baseline, absent from current report)\n", title)
			failures++
		case b.cycles() == 0:
			fmt.Fprintf(w, "skip     %-60.60s  baseline reports zero cycles\n", title)
		default:
			bc, cc := b.cycles(), c.cycles()
			status, first := "ok", firstDiff(b, c)
			if first != "" {
				status = "CHANGED"
				first = "; " + first
				failures++
			}
			fmt.Fprintf(w, "%-8s %-60.60s  %d -> %d cycles (%+d)%s\n", status, title, bc, cc, int64(cc-bc), first)
		}
	}
	var added []string
	for title := range cur.tables {
		if _, ok := base.tables[title]; !ok {
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
// status — 0 when every experiment matches, 1 when one differs or is
// missing, 2 on a usage or input error.
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
	fmt.Fprintf(stdout, "baseline: %s (exact: any change in a table or its cells' metrics fails)\n", *basePath)
	if failures := diff(stdout, base, cur); failures > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d experiment(s) changed or went missing\n", failures)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}
