package experiments

import (
	"errors"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
	"autarky/internal/workloads"
)

// E7b — the §5.3 residual channels: the termination attack and the
// lack-of-faults attack. Autarky reduces the attacker to unmapping a set of
// pages and observing a single bit per enclave lifetime — "terminated"
// (some unmapped page was accessed, but not which) or "completed" (none
// was). Harvesting more than a few bits requires restarting the enclave,
// which the §3 attestation-based restart monitor flags.
//
// The experiment mounts the strongest such attack — a binary search for a
// secret word's dictionary page across restarts — and measures:
//   - bits learned per enclave lifetime (must be ≤ 1),
//   - restarts needed to localize the page (≈ log2(pages)),
//   - the restart count at which the monitor flags the harvesting.

// E7bResult captures the termination-attack measurements.
type E7bResult struct {
	DictPages       int
	RestartsUsed    int
	PageLocalized   bool
	TheoreticalMin  int // ceil(log2(pages))
	MonitorBudget   int
	MonitorFlagged  bool
	FlaggedAtRun    int
	MaskedWhenFatal bool // even the fatal fault carried only the base address
}

// RunE7Termination mounts the binary-search termination attack.
func RunE7Termination() E7bResult {
	env := e7HunspellSetup()
	secret := env.secrets[0]

	res := E7bResult{MonitorBudget: 4}

	// One relying party (the paper's trusted service) watches restarts of
	// this measurement across the whole campaign. Experiment machines share
	// a platform root (same vendor signing chain), so quotes from any
	// victim instance verify against the monitor's key.
	monitor := sgx.NewRestartMonitor(newHost(sim.DefaultCosts()).CPU, res.MonitorBudget)

	// runProbe starts a fresh victim instance, unmaps the candidate page
	// set before the query, and reports whether the enclave terminated.
	runProbe := func(run int, candidates []mmu.VAddr, probe func(d *workloads.Dictionary) []mmu.VAddr) (terminated, masked bool, pages []mmu.VAddr) {
		img := libos.AppImage{
			Name:      "hunspell",
			Libraries: []libos.Library{{Name: "libhunspell.so", Pages: 4}},
			HeapPages: env.cfg.PagesPerDict + 16,
		}
		rc := RunConfig{SelfPaging: true, Policy: libos.PolicyPinAll, HeapPages: img.HeapPages}
		p, err := BuildProcess(img, rc)
		if err != nil {
			panic(err)
		}
		// The restart monitor attests the new instance at startup (§3).
		q, err := p.Kernel.CPU.EREPORT(p.Enclave(), nil)
		if err != nil {
			panic(err)
		}
		if err := monitor.Admit(q); err != nil {
			if errors.Is(err, sgx.ErrQuoteForged) {
				panic(err)
			}
			if !res.MonitorFlagged {
				res.MonitorFlagged = true
				res.FlaggedAtRun = run
			}
		}

		runErr := p.Run(func(ctx *core.Context) {
			h, err := workloads.BuildHunspell(p, ctx, env.cfg)
			if err != nil {
				panic(err)
			}
			d := h.Dicts["en_US"]
			if pages == nil {
				pages = d.Pages()
			}
			set := candidates
			if probe != nil {
				set = probe(d)
			}
			for _, va := range set {
				p.Kernel.UnmapPage(va)
			}
			_, _ = h.Check(ctx, "en_US", secret)
		})
		var term *sgx.TerminationError
		if errors.As(runErr, &term) {
			return true, allMasked(&p.Kernel.FaultLog, p.Enclave()), pages
		}
		if runErr != nil {
			panic(runErr)
		}
		return false, true, pages
	}

	// Discover the page list from a clean run.
	_, _, pages := runProbe(0, nil, func(d *workloads.Dictionary) []mmu.VAddr { return nil })
	res.DictPages = len(pages)
	for n := 1; n < len(pages); n *= 2 {
		res.TheoreticalMin++
	}

	// Ground truth for scoring: the pages the secret's lookup touches.
	truth := make(map[mmu.VAddr]bool)
	runProbe(0, nil, func(d *workloads.Dictionary) []mmu.VAddr {
		for _, va := range d.AccessTrace(secret) {
			truth[va] = true
		}
		return nil
	})

	// Binary search: each restart probes half the remaining candidates.
	// Termination reveals only that *some* probed page was accessed
	// (one bit); the search converges on one accessed page.
	lo, hi := 0, len(pages)
	run := 0
	for hi-lo > 1 {
		run++
		mid := (lo + hi) / 2
		terminated, masked, _ := runProbe(run, pages[lo:mid], nil)
		if terminated && !masked {
			res.MaskedWhenFatal = false
			return res
		}
		if terminated {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.MaskedWhenFatal = true
	res.RestartsUsed = run
	res.PageLocalized = truth[pages[lo]]
	return res
}
