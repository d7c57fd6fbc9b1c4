package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autarky/internal/experiments"
)

// bench runs the CLI in-process and returns (exit code, stdout, stderr).
func bench(args ...string) (int, string, string) {
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// goldens names the committed table of each experiment that has one, as
// generated at -scale 1; the Makefile's chaos, orderly, serving and migrate
// targets diff the same files at -jobs 1 and -jobs 8.
var goldens = map[string]string{
	"chaos":       "e12_chaos",
	"orderliness": "e13_orderliness",
	"serving":     "e14_serving",
	"migration":   "e15_migration",
	"chaosfleet":  "e16_chaosfleet",
}

// TestEveryExperimentSmoke runs every experiment at -scale 1: each must
// exit 0 and print at least one table, and an experiment with a golden
// must print it byte for byte. Aliases resolve to the same registry entry
// (TestAliasesSelectSameExperiment), so each experiment only needs to
// execute once.
func TestEveryExperimentSmoke(t *testing.T) {
	for _, e := range registry {
		name := e.names[0]
		t.Run(name, func(t *testing.T) {
			code, out, errw := bench("-exp", name, "-scale", "1")
			if code != 0 {
				t.Fatalf("-exp %s exited %d\nstderr: %s", name, code, errw)
			}
			if !strings.Contains(out, "== ") {
				t.Fatalf("-exp %s printed no table:\n%s", name, out)
			}
			if strings.Contains(out, "FAILED") {
				t.Fatalf("-exp %s reported a failed experiment:\n%s", name, out)
			}
			if g, ok := goldens[name]; ok {
				checkGolden(t, name, g, out)
			}
		})
	}
}

// checkGolden compares an experiment's output with its committed golden
// table and reports the first lines that differ.
func checkGolden(t *testing.T, name, golden, out string) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", golden+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out == string(want) {
		return
	}
	got, exp := strings.Split(out, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(got) && i < len(exp) && got[i] == exp[i] {
		i++
	}
	from := func(lines []string) string { return strings.Join(lines[min(i, len(lines)):min(i+3, len(lines))], "\n") }
	t.Fatalf("-exp %s differs from %s at line %d:\n--- got ---\n%s\n--- want ---\n%s\n"+
		"regenerate after an intentional change with:\n  go run ./cmd/autarky-bench -exp %s -jobs 1 > testdata/%s.golden",
		name, path, i+1, from(got), from(exp), name, golden)
}

// TestAliasesSelectSameExperiment checks -exp resolution for every name
// without paying for a second run of each experiment.
func TestAliasesSelectSameExperiment(t *testing.T) {
	for _, e := range registry {
		for _, name := range e.names {
			got := selected(name)
			if len(got) != 1 || got[0].names[0] != e.names[0] {
				t.Errorf("-exp %s resolves to %v, want %s", name, got, e.names[0])
			}
			upper := selected(strings.ToUpper(name))
			if len(upper) != 1 || upper[0].names[0] != e.names[0] {
				t.Errorf("-exp %s (uppercase) resolves to %v, want %s", name, upper, e.names[0])
			}
		}
	}
	if got := selected("all"); len(got) != len(registry) {
		t.Errorf(`selected("all") returned %d entries, want %d`, len(got), len(registry))
	}
	if got := selected("nonesuch"); got != nil {
		t.Errorf(`selected("nonesuch") = %v, want nil`, got)
	}
}

func TestJSONOutputRoundTrips(t *testing.T) {
	code, out, errw := bench("-exp", "e1", "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errw)
	}
	var rep experiments.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-format json output does not parse: %v\n%s", err, out)
	}
	if len(rep.Tables) != 1 {
		t.Fatalf("%d tables, want 1", len(rep.Tables))
	}
	tab := rep.Tables[0]
	if tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
		t.Fatalf("degenerate table after round trip: %+v", tab)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tab.Header))
		}
	}
}

// TestJobsFlagDeterminism is the CLI-level determinism check: the same
// invocation at -jobs 1 and -jobs 8 must produce identical bytes.
func TestJobsFlagDeterminism(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		code1, seq, _ := bench("-exp", "fig5", "-jobs", "1", "-format", format)
		code8, par, _ := bench("-exp", "fig5", "-jobs", "8", "-format", format)
		if code1 != 0 || code8 != 0 {
			t.Fatalf("exits %d/%d", code1, code8)
		}
		if seq != par {
			t.Fatalf("%s output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				format, seq, par)
		}
	}
}

func TestBadUsage(t *testing.T) {
	if code, _, errw := bench("-exp", "nonesuch"); code != 2 || !strings.Contains(errw, "unknown experiment") {
		t.Fatalf("unknown experiment: exit %d, stderr %q", code, errw)
	}
	if code, _, _ := bench("-format", "yaml"); code != 2 {
		t.Fatalf("unknown format accepted")
	}
	if code, _, _ := bench("-nonsense"); code != 2 {
		t.Fatalf("unknown flag accepted")
	}
}

// TestBudgetFailureIsIsolated forces a cycle-budget overrun: the affected
// experiment must report an error table and a nonzero exit, without
// panicking the process.
func TestBudgetFailureIsIsolated(t *testing.T) {
	defer experiments.SetCellBudget(0)
	code, out, errw := bench("-exp", "e1", "-budget", "1000")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errw)
	}
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "cycle limit") {
		t.Fatalf("no error table for budget overrun:\n%s", out)
	}
	if !strings.Contains(errw, "1 experiment(s) failed") {
		t.Fatalf("stderr missing failure count: %q", errw)
	}
}

func TestRegistryAliasesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if len(e.names) == 0 {
			t.Fatal("registry entry with no names")
		}
		for _, n := range e.names {
			if seen[n] {
				t.Fatalf("duplicate experiment name %q", n)
			}
			seen[n] = true
		}
	}
	if seen["all"] {
		t.Fatal(`"all" must not name a single experiment`)
	}
}
