// Command attack-demo runs the published controlled-channel attacks against
// both the vanilla SGX model and the Autarky model, narrating what the
// OS-level adversary observes and recovers in each case.
//
// It is the end-to-end demonstration of the paper's claim: on vanilla SGX
// the attacks recover the secrets noise-free; under Autarky the fault
// information is masked, the silent-resume path is architecturally blocked,
// and the trusted runtime detects and terminates on the induced faults.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"autarky/internal/experiments"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("attack-demo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "attack-demo: unexpected arguments %q\n", fs.Args())
		return 2
	}
	fmt.Fprintln(stdout, "Autarky controlled-channel attack demonstration")
	fmt.Fprintln(stdout, "================================================")
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "Running five published attack variants against both models:")
	fmt.Fprintln(stdout, "  1. Hunspell word recovery via page-fault injection (Xu et al. 2015)")
	fmt.Fprintln(stdout, "  2. Hunspell word recovery via wrong mappings (the Foreshadow precursor)")
	fmt.Fprintln(stdout, "  3. FreeType text recovery via execute-permission traps")
	fmt.Fprintln(stdout, "  4. libjpeg image recovery via IDCT fault counting")
	fmt.Fprintln(stdout, "  5. Hunspell recovery via the silent A/D-bit monitor (Wang et al. 2017)")
	fmt.Fprintln(stdout, "plus the lifecycle-ordering attacks from the orderliness model checker:")
	fmt.Fprintln(stdout, "  6. suspend > tamper > resume (state substitution across a whole-enclave swap)")
	fmt.Fprintln(stdout, "  7. suspend > tamper pinned page > resume (the same, against self-paged state)")
	fmt.Fprintln(stdout, "  8. stale-blob rollback (replaying an old sealed page version)")

	res := experiments.RunE7()
	res.Table().Fprint(stdout)

	fmt.Fprintln(stdout)
	ok := true
	for _, s := range res.Scenarios {
		// Negative vanilla recovery marks "n/a": the attack has no vanilla
		// analogue (hardware version arrays stop it even there).
		if s.VanillaRecovery >= 0 && s.VanillaRecovery < 0.5 {
			fmt.Fprintf(stdout, "UNEXPECTED: %s recovered only %.0f%% on vanilla SGX\n", s.Name, s.VanillaRecovery*100)
			ok = false
		}
		stopped := s.AutarkyTerminated
		if s.AutarkyOutcome != "" {
			// Ordering attacks are judged by the checker's verdict: a refusal
			// (the illegal reordering never executed) stops the attack just as
			// surely as a termination.
			stopped = !strings.HasPrefix(s.AutarkyOutcome, "UNDETECTED")
		}
		if !stopped || s.AutarkyRecovery > 0 {
			fmt.Fprintf(stdout, "UNEXPECTED: %s not stopped by Autarky\n", s.Name)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	fmt.Fprintln(stdout, "All attacks succeeded against vanilla SGX and were detected under Autarky.")

	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "Residual channel (§5.3): the termination attack")
	fmt.Fprintln(stdout, "-----------------------------------------------")
	tr := experiments.RunE7Termination()
	fmt.Fprintf(stdout, "dictionary pages:            %d\n", tr.DictPages)
	fmt.Fprintf(stdout, "bits per enclave lifetime:   1 (terminated / completed)\n")
	fmt.Fprintf(stdout, "restarts to localize a page: %d (information-theoretic minimum %d)\n",
		tr.RestartsUsed, tr.TheoreticalMin)
	fmt.Fprintf(stdout, "every fatal fault masked:    %v\n", tr.MaskedWhenFatal)
	fmt.Fprintf(stdout, "restart monitor (budget %d): flagged at restart %d\n",
		tr.MonitorBudget, tr.FlaggedAtRun)
	fmt.Fprintln(stdout, "The attacker pays one detectable restart per bit; the attested")
	fmt.Fprintln(stdout, "restart monitor (§3) flags the harvesting almost immediately.")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
