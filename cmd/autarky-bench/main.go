// Command autarky-bench regenerates every table and figure of the paper's
// evaluation (§7) from the architectural model. Each experiment prints the
// same rows/series the paper reports, with the paper's qualitative shape
// noted alongside.
//
// Experiments are grids of independent cells — one simulated machine per
// cell — run on up to -jobs goroutines and collected in cell order. Results
// are deterministic at any concurrency: -jobs changes wall-clock time, never
// a reported cycle count. A failing cell (a crash, or a machine clock
// crossing the -budget cycle limit) fails its experiment, which prints a
// FAILED table while the rest of the suite still runs.
//
// Usage:
//
//	autarky-bench                  # run everything at default scale
//	autarky-bench -exp fig6        # one experiment (e1,fig5,fig6,fig7,table2,fig8,security,ablation,...)
//	autarky-bench -scale 4         # larger workloads (slower, smoother numbers)
//	autarky-bench -jobs 8          # up to 8 concurrent experiment cells
//	autarky-bench -jobs 1          # strictly sequential (same output, slower)
//	autarky-bench -format json     # machine-readable report (see experiments.Report)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"autarky/internal/experiments"
)

// experiment is one registry entry: a primary name, its aliases, and the
// driver that produces the printed table at a given workload scale.
type experiment struct {
	names []string
	run   func(scale int) *experiments.Table
}

// registry lists every experiment in the order "-exp all" runs them.
var registry = []experiment{
	{[]string{"e1"}, func(s int) *experiments.Table {
		return experiments.RunE1(4 * s).Table()
	}},
	{[]string{"fig5", "e2"}, func(s int) *experiments.Table {
		return experiments.RunE2(20 * s).Table()
	}},
	{[]string{"fig6", "e3"}, func(s int) *experiments.Table {
		p := experiments.DefaultE3Params()
		p.Lookups *= s
		return experiments.RunE3(p).Table()
	}},
	{[]string{"fig7", "e4"}, func(s int) *experiments.Table {
		return experiments.RunE4(s).Table()
	}},
	{[]string{"table2", "e5"}, func(s int) *experiments.Table {
		p := experiments.DefaultE5Params()
		p.HunspellWords *= s
		p.FreeTypeChars *= s
		return experiments.RunE5(p).Table()
	}},
	{[]string{"fig8", "e6"}, func(s int) *experiments.Table {
		p := experiments.DefaultE6Params()
		p.Requests *= s
		return experiments.RunE6(p).Table()
	}},
	{[]string{"mixed", "e6m"}, func(s int) *experiments.Table {
		p := experiments.DefaultE6Params()
		p.Requests *= s
		return experiments.RunE6Mixed(p).Table()
	}},
	{[]string{"security", "e7"}, func(s int) *experiments.Table {
		return experiments.RunE7().Table()
	}},
	{[]string{"leakage", "e7c"}, func(s int) *experiments.Table {
		return experiments.RunE7Leakage().Table()
	}},
	{[]string{"ablation", "e8"}, func(s int) *experiments.Table {
		return experiments.RunE8(10 * s).Table()
	}},
	{[]string{"codeclusters", "e8b"}, func(s int) *experiments.Table {
		return experiments.RunE8CodeClusters(600 * s).Table()
	}},
	{[]string{"sensitivity", "e9"}, func(s int) *experiments.Table {
		return experiments.RunE9().Table()
	}},
	{[]string{"multitenant", "e10"}, func(s int) *experiments.Table {
		p := experiments.DefaultE10Params()
		p.Rounds *= s
		return experiments.RunE10(p).Table()
	}},
	{[]string{"backends", "e11"}, func(s int) *experiments.Table {
		p := experiments.DefaultE11Params()
		p.Rounds *= s
		return experiments.RunE11(p).Table()
	}},
	{[]string{"chaos", "e12"}, func(s int) *experiments.Table {
		p := experiments.DefaultE12Params()
		p.Rounds *= s
		return experiments.RunE12(p).Table()
	}},
	{[]string{"orderliness", "e13"}, func(s int) *experiments.Table {
		p := experiments.DefaultE13Params()
		if s > 1 {
			p.MaxDepth++ // each extra depth level multiplies the exploration
		}
		return experiments.RunE13(p).Table()
	}},
	{[]string{"serving", "e14"}, func(s int) *experiments.Table {
		p := experiments.DefaultE14Params()
		p.Requests *= s
		return experiments.RunE14(p).Table()
	}},
	{[]string{"migration", "e15"}, func(s int) *experiments.Table {
		p := experiments.DefaultE15Params()
		p.Requests *= s
		return experiments.RunE15(p).Table()
	}},
	{[]string{"chaosfleet", "e16"}, func(s int) *experiments.Table {
		p := experiments.DefaultE16Params()
		p.Requests *= s
		return experiments.RunE16(p).Table()
	}},
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("autarky-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: e1, fig5, fig6, fig7, table2, fig8, mixed, security, leakage, ablation, codeclusters, sensitivity, multitenant, backends, chaos, orderliness, serving, migration, chaosfleet, or all")
	scale := fs.Int("scale", 1, "workload scale factor (iterations / dataset multiplier)")
	jobs := fs.Int("jobs", runtime.NumCPU(), "max concurrent experiment cells; 1 runs strictly sequentially (identical output)")
	format := fs.String("format", "text", "output format: text or json")
	budget := fs.Uint64("budget", 0, "per-cell cycle budget; a cell exceeding it reports an error row (0 = unlimited)")
	wall := fs.Bool("wall", false, "stamp wall_nanos (host generation time) on the JSON report; breaks byte-identity across runs, informational only")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (for hot-path work; does not affect results)")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "creating cpu profile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "starting cpu profile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "creating mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "writing mem profile: %v\n", err)
			}
		}()
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "unknown format %q (want text or json)\n", *format)
		return 2
	}

	experiments.SetJobs(*jobs)
	experiments.SetCellBudget(*budget)

	selected := selected(*exp)
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q\n", *exp)
		return 2
	}

	var rep experiments.Report
	failed := 0
	start := time.Now()
	for _, e := range selected {
		tab, ok := runSafe(e.names[0], *scale, e.run)
		if !ok {
			failed++
		}
		rep.Add(tab)
	}

	if *format == "json" {
		// The wall-clock stamp is opt-in: default JSON output is part of
		// the byte-identical determinism contract, and wall time is the one
		// quantity that cannot honour it. `make bench`/`make benchdiff`
		// pass -wall so the committed baselines carry the stamp.
		if *wall {
			rep.WallNanos = time.Since(start).Nanoseconds()
		}
		if err := rep.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "writing report: %v\n", err)
			return 1
		}
	} else {
		for _, t := range rep.Tables {
			t.Fprint(stdout)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}

// selected resolves an -exp value to registry entries: every experiment
// for "all", the matching entry (by any of its names, case-insensitively)
// otherwise, nil for an unknown name.
func selected(exp string) []experiment {
	if exp == "all" {
		return registry
	}
	for _, e := range registry {
		for _, n := range e.names {
			if strings.EqualFold(exp, n) {
				return []experiment{e}
			}
		}
	}
	return nil
}

// runSafe executes one experiment, converting a panic (a crashed cell, an
// exceeded cycle budget) into an error table so the rest of the suite
// still runs and reports.
func runSafe(name string, scale int, f func(int) *experiments.Table) (tab *experiments.Table, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			tab = &experiments.Table{
				Title:  fmt.Sprintf("%s: FAILED", name),
				Header: []string{"experiment", "error"},
				Rows:   [][]string{{name, fmt.Sprint(r)}},
			}
			ok = false
		}
	}()
	return f(scale), true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
