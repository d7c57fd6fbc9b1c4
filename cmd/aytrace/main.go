// Command aytrace runs one of E7's attacks — a victim workload under the
// adversary E7 mounts on it — and prints the page-access trace the OS
// observes: the controlled channel made visible. Compare the two models
// directly:
//
//	aytrace -victim hunspell -adversary fault            # vanilla SGX
//	aytrace -victim hunspell -adversary fault -autarky   # masked + detected
//	aytrace -victim freetype -adversary noexec
//	aytrace -victim hunspell -adversary adbits -max-events 40
//
// The victims, their secrets and the attack mounts are E7's own (see
// EXPERIMENTS.md), so a trace printed here is one row of that table. It
// accepts the five (victim, adversary) pairs E7 runs: hunspell with fault,
// wrongmap or adbits, freetype with noexec, and jpeg with fault.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"autarky/internal/experiments"
	"autarky/internal/mmu"
	"autarky/internal/trace"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aytrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	victim := fs.String("victim", "hunspell", "victim workload: hunspell, freetype, jpeg")
	adversary := fs.String("adversary", "fault", "adversary: fault, noexec, wrongmap, adbits")
	selfPaging := fs.Bool("autarky", false, "run the victim as a self-paging (Autarky) enclave")
	maxEvents := fs.Int("max-events", 60, "trace events to print")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "aytrace: unexpected arguments %q\n", fs.Args())
		return 2
	}
	tr, err := experiments.TraceE7(*victim, *adversary, *selfPaging)
	if err != nil {
		fmt.Fprintln(stderr, "aytrace:", err)
		return 2
	}

	mode := "vanilla SGX"
	if *selfPaging {
		mode = "Autarky"
	}
	fmt.Fprintf(stdout, "victim=%s adversary=%s model=%s\n", *victim, *adversary, mode)
	if tr.Terminated {
		fmt.Fprintf(stdout, "outcome: enclave TERMINATED (%s)\n", tr.Reason)
	} else {
		fmt.Fprintln(stdout, "outcome: ran to completion")
	}

	faults := tr.Observed.Only(trace.KindFault)
	fmt.Fprintf(stdout, "\nOS fault log (%d events, every enclave fault the kernel saw):\n", faults.Len())
	printLog(stdout, faults, tr.Base, *maxEvents)
	if tr.Captured.Len() > 0 {
		fmt.Fprintf(stdout, "\nadversary's captured trace (%d events):\n", tr.Captured.Len())
		printLog(stdout, tr.Captured, tr.Base, *maxEvents)
	}
	return 0
}

func printLog(w io.Writer, l *trace.Log, enclaveBase mmu.VAddr, max int) {
	for i, ev := range l.Events {
		if i >= max {
			fmt.Fprintf(w, "  ... %d more\n", l.Len()-max)
			return
		}
		note := ""
		if ev.Addr == enclaveBase {
			note = "   <- masked to enclave base"
		}
		fmt.Fprintf(w, "  %3d  cycle=%-10d %-5s %-6s %s%s\n", i, ev.Cycle, ev.Kind, ev.Type, ev.Addr, note)
	}
	if l.Len() == 0 {
		fmt.Fprintln(w, "  (empty)")
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
