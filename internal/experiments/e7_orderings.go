package experiments

import (
	"fmt"
	"strings"

	"autarky/internal/libos"
	"autarky/internal/orderly"
	"autarky/internal/trace"
)

// The ordering attacks: lifecycle-interleaving attacks expressed in the
// model checker's counterexample trace format ("scenario:op>op>op") and
// executed through internal/orderly, so every sequence reported here is by
// construction one the checker has exhaustively verified against the
// orderliness spec — and a counterexample the checker prints can be pasted
// into this table as a new row. The vanilla column runs the same ordering
// on the legacy (kernel-paged) scenario, where blob tampering across a
// suspend/resume cycle is silently accepted; Autarky's integrity-checked
// self-paging path refuses or terminates instead.

// e7Ordering is one ordering attack: the same interleaving on a legacy and
// a self-paging machine.
type e7Ordering struct {
	name    string
	vanilla string // legacy trace; "" when legacy cannot express the attack
	autarky string
}

func e7Orderings() []e7Ordering {
	return []e7Ordering{
		{
			// The OS suspends a running enclave, flips a bit in an evicted
			// heap blob, and resumes. Legacy SGX restores nothing on resume
			// and serves the tampered page on the next fault.
			name:    "ordering/suspend-tamper-resume",
			vanilla: "legacy:load>run>suspend>tamper>resume",
			autarky: "sp-sgx1-roomy:load>run>suspend>tamper>resume",
		},
		{
			// Same interleaving, aimed at a pinned stack page — the pages
			// the paper's contract says must never leave the enclave's
			// control except through the sealed wholesale-suspend path.
			name:    "ordering/suspend-tamper-pinned-resume",
			vanilla: "legacy:load>suspend>tamper>resume",
			autarky: "sp-sgx1-roomy:load>suspend>tamper-pinned>resume",
		},
		{
			// Rollback: the OS re-presents a stale but authentic sealed blob
			// from an earlier eviction of the same page. Legacy cannot
			// express it (the kernel path has hardware version arrays), so
			// the row is the Autarky verdict alone: the version counter
			// detects the stale blob and terminates.
			name:    "ordering/rollback-stale-blob",
			autarky: "sp-sgx1-replay:load>run>tamper>run",
		},
	}
}

// runE7Ordering executes one ordering on both machines via the checker's
// replay path. A divergence from the orderliness spec is a harness bug and
// panics the cell.
func runE7Ordering(mrec *cellRecorder, o e7Ordering) E7Scenario {
	s := E7Scenario{Name: o.name}
	run := func(traceStr, sub string) (last orderly.StepOutcome, faults *trace.Log) {
		sc, ops, err := orderly.ParseTrace(traceStr)
		if err != nil {
			panic(err)
		}
		steps, cx, snap, seen := orderly.ExecuteTrace(sc, ops, CellBudget())
		if cx != nil {
			panic(fmt.Sprintf("E7 %s: ordering diverged from the orderliness spec: %s", o.name, cx))
		}
		mrec.record(sub, snap)
		return steps[len(steps)-1], seen.Only(trace.KindFault)
	}

	if o.vanilla == "" {
		s.VanillaRecovery = -1 // rendered n/a
	} else {
		last, faults := run(o.vanilla, "vanilla")
		s.VanillaDetected = last.Class != "ok"
		s.VanillaFaults = faults.Len()
		if last.Class == "ok" {
			// The final adversarial step silently succeeded: the tampered
			// state is live and whatever it influences leaks in full.
			s.VanillaRecovery = 1
		}
	}

	last, faults := run(o.autarky, "autarky")
	// The orderliness image loads at the default ELRANGE base.
	s.AutarkyFaults, s.MaskedOnly = faults.Len(), allMasked(faults, libos.DefaultBase)
	s.AutarkyTerminated = last.Class == "term"
	switch last.Class {
	case "ok":
		s.AutarkyOutcome = "UNDETECTED (" + last.Op.String() + " succeeded)"
	case "refused":
		s.AutarkyOutcome = fmt.Sprintf("REFUSED at %s, still %s", last.Op, strings.ToLower(last.Phase.String()))
	case "term":
		s.AutarkyOutcome = "TERMINATED at " + last.Op.String()
	default:
		s.AutarkyOutcome = last.Class + " at " + last.Op.String()
	}
	return s
}
