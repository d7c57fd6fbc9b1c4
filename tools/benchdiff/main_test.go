package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport writes a fake autarky-bench report to dir/name: one table per
// experiment, each with one cell of the given total cycles.
func writeReport(t *testing.T, dir, name string, cycles map[string]uint64) string {
	t.Helper()
	type cell struct {
		Cell    string            `json:"cell"`
		Metrics map[string]uint64 `json:"metrics"`
	}
	type table struct {
		Title   string `json:"title"`
		Metrics []cell `json:"metrics"`
	}
	var r struct {
		Tables []table `json:"tables"`
	}
	for title, c := range cycles {
		r.Tables = append(r.Tables, table{Title: title, Metrics: []cell{{Cell: "c", Metrics: map[string]uint64{"Cycles": c}}}})
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
		cur    map[string]uint64
		status int
		line   string // a line of stdout that must appear
	}{
		{"equal totals", map[string]uint64{"E1": 1000, "E2": 0}, 0, "ok       E1"},
		{"one cycle more", map[string]uint64{"E1": 1001, "E2": 0}, 1, "1000 -> 1001 cycles (+1)"},
		{"one cycle less", map[string]uint64{"E1": 999, "E2": 0}, 1, "1000 -> 999 cycles (-1)"},
		{"missing experiment", map[string]uint64{"E2": 0}, 1, "MISSING  E1"},
		{"zero-cycle baseline", map[string]uint64{"E1": 1000, "E2": 7}, 0, "skip     E2"},
		{"new experiment", map[string]uint64{"E1": 1000, "E2": 0, "E3": 5}, 0, "new      E3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			basePath := writeReport(t, dir, "BENCH_2026-01-01.json", base)
			curPath := writeReport(t, t.TempDir(), "current.json", c.cur)
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
	writeReport(t, dir, "BENCH_2026-10-16.json", map[string]uint64{"E1": 1})
	writeReport(t, dir, "BENCH_2026-10-19.json", map[string]uint64{"E1": 2})
	writeReport(t, dir, "BENCH_2025-12-31.json", map[string]uint64{"E1": 3})
	cur := writeReport(t, t.TempDir(), "current.json", map[string]uint64{"E1": 2})
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
