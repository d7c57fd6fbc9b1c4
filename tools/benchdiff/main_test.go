package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tab is a one-cell experiment table in the shape autarky-bench reports,
// whose cell ran the given cycles.
func tab(title string, cycles uint64) *table {
	t := &table{
		Title:   title,
		Note:    "one cell",
		Header:  []string{"fault rate", "restore Mcyc"},
		Rows:    [][]string{{"0.00", "24.90"}, {"0.01", "24.92"}},
		Metrics: []cell{{Cell: title + "[0]"}},
	}
	m := &t.Metrics[0].Metrics
	m.Cycles = cycles
	m.Attribution = map[string]uint64{"compute": cycles}
	m.Counters = map[string]uint64{"tlb.fills": 38}
	return t
}

// tables is one tab per experiment.
func tables(cycles map[string]uint64) map[string]*table {
	ts := make(map[string]*table, len(cycles))
	for title, c := range cycles {
		ts[title] = tab(title, c)
	}
	return ts
}

// writeReport writes a fake autarky-bench report of ts, in title order, to
// dir/name.
func writeReport(t *testing.T, dir, name string, ts map[string]*table) string {
	t.Helper()
	titles := make([]string, 0, len(ts))
	for title := range ts {
		titles = append(titles, title)
	}
	sort.Strings(titles)
	var r struct {
		Tables []*table `json:"tables"`
	}
	for _, title := range titles {
		r.Tables = append(r.Tables, ts[title])
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffIsExact(t *testing.T) {
	base := map[string]uint64{"E1": 1000, "E2": 0}
	cases := []struct {
		name   string
		edit   func(cur map[string]*table)
		status int
		line   string // a line of stdout must contain it
	}{
		{"equal totals", func(map[string]*table) {}, 0, "ok       E1"},
		{"one cycle more", func(cur map[string]*table) { cur["E1"] = tab("E1", 1001) }, 1, "1000 -> 1001 cycles (+1); cell E1[0] cycles 1000 -> 1001"},
		{"one cycle less", func(cur map[string]*table) { cur["E1"] = tab("E1", 999) }, 1, "1000 -> 999 cycles (-1)"},
		{"missing experiment", func(cur map[string]*table) { delete(cur, "E1") }, 1, "MISSING  E1"},
		{"zero-cycle baseline", func(cur map[string]*table) { cur["E2"] = tab("E2", 7) }, 0, "skip     E2"},
		{"new experiment", func(cur map[string]*table) { cur["E3"] = tab("E3", 5) }, 0, "new      E3"},
		// A row can move while the total stays put: E12's "restore Mcyc"
		// read 24.92 in one baseline and 24.89 in every later tree.
		{"row differs, cycles equal", func(cur map[string]*table) { cur["E1"].Rows[1][1] = "24.89" }, 1,
			`1000 -> 1000 cycles (+0); row 2 "0.01", restore Mcyc: "24.92" -> "24.89"`},
		{"row added", func(cur map[string]*table) {
			cur["E1"].Rows = append(cur["E1"].Rows, []string{"0.02", "25.00"})
		}, 1, "(+0); 2 -> 3 rows"},
		{"header differs", func(cur map[string]*table) { cur["E1"].Header[1] = "restore Gcyc" }, 1,
			`(+0); header, column 2: "restore Mcyc" -> "restore Gcyc"`},
		{"note differs", func(cur map[string]*table) { cur["E1"].Note = "two cells" }, 1, `(+0); note "one cell" -> "two cells"`},
		{"counter differs", func(cur map[string]*table) { cur["E1"].Metrics[0].Metrics.Counters["tlb.fills"] = 39 }, 1,
			"(+0); cell E1[0] counter tlb.fills 38 -> 39"},
		{"counter added", func(cur map[string]*table) { cur["E1"].Metrics[0].Metrics.Counters["tlb.misses"] = 2 }, 1,
			"(+0); cell E1[0] counter tlb.misses 0 -> 2"},
		{"attribution moves", func(cur map[string]*table) {
			a := cur["E1"].Metrics[0].Metrics.Attribution
			a["compute"], a["paging"] = 990, 10
		}, 1, "(+0); cell E1[0] attribution compute 1000 -> 990"},
		{"cell renamed", func(cur map[string]*table) { cur["E1"].Metrics[0].Cell = "E1[1]" }, 1, `(+0); cell 1 "E1[0]" -> "E1[1]"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			basePath := writeReport(t, dir, "BENCH_2026-01-01.json", tables(base))
			cur := tables(base)
			c.edit(cur)
			curPath := writeReport(t, t.TempDir(), "current.json", cur)
			var stdout, stderr bytes.Buffer
			status := run([]string{"-base", basePath, curPath}, dir, &stdout, &stderr)
			if status != c.status || !strings.Contains(stdout.String(), c.line) {
				t.Fatalf("exit %d, want %d; want a line with %q in:\n%s%s", status, c.status, c.line, stdout.String(), stderr.String())
			}
		})
	}
}

func TestNewestBaselineIsPicked(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, dir, "BENCH_2026-10-16.json", tables(map[string]uint64{"E1": 1}))
	writeReport(t, dir, "BENCH_2026-10-19.json", tables(map[string]uint64{"E1": 2}))
	writeReport(t, dir, "BENCH_2025-12-31.json", tables(map[string]uint64{"E1": 3}))
	cur := writeReport(t, t.TempDir(), "current.json", tables(map[string]uint64{"E1": 2}))
	var stdout, stderr bytes.Buffer
	if status := run([]string{cur}, dir, &stdout, &stderr); status != 0 ||
		!strings.Contains(stdout.String(), "BENCH_2026-10-19.json") {
		t.Fatalf("exit %d against:\n%s%s", status, stdout.String(), stderr.String())
	}
	if status := run([]string{cur}, t.TempDir(), &stdout, &stderr); status != 2 {
		t.Fatalf("no baseline: exit %d, want 2", status)
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{nil, {"-threshold", "5", "x.json"}, {"a.json", "b.json"}} {
		if status := run(args, t.TempDir(), &stdout, &stderr); status != 2 {
			t.Errorf("benchdiff %q: exit %d, want 2", args, status)
		}
	}
}

// TestDuplicateTitlesAreRefused: tables are matched by title, so a report
// with two tables of one title cannot be compared.
func TestDuplicateTitlesAreRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dup.json")
	b, err := json.Marshal(struct {
		Tables []*table `json:"tables"`
	}{[]*table{tab("E1", 1), tab("E1", 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-base", path, path}, dir, &stdout, &stderr); status != 2 ||
		!strings.Contains(stderr.String(), `two tables titled "E1"`) {
		t.Fatalf("exit %d, stderr %q; want 2 naming the duplicate", status, stderr.String())
	}
}
