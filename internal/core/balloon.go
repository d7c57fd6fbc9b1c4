package core

import (
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// This file implements the memory-management upcall the paper sketches and
// defers to future work (§5.2.1: under pressure the OS "can upcall the
// enclave and ask it to reduce its memory use", like VM ballooning). The
// design resolves the three tradeoffs the paper lists:
//
//  1. "the enclave must be given time" — the upcall is synchronous but
//     bounded: the runtime evicts at most what one policy victim-selection
//     round yields;
//  2. "its eviction policy does not leak" — victims come from the same
//     policy used for self-paging (whole clusters, FIFO pages), so an
//     upcall leaks nothing a legitimate fault would not;
//  3. "the enclave may not cooperate" — the runtime never evicts pinned
//     pages; the OS sees how many pages were actually released and can
//     fall back to suspending the enclave (hostos.SuspendEnclave).

// BalloonRequest asks the runtime to release up to want enclave-managed
// pages. It returns how many pages were evicted. It must be called outside
// enclave execution (the OS invokes it between runs, or from a host hart).
func (r *Runtime) BalloonRequest(want int) (int, error) {
	if want <= 0 {
		return 0, fmt.Errorf("core: BalloonRequest(%d)", want)
	}
	if _, in := r.CPU.InEnclave(); in {
		return 0, fmt.Errorf("core: BalloonRequest during enclave execution")
	}
	r.m.Inc(metrics.CntBalloonRequests)
	// Everything the upcall does — victim selection and the eviction dance —
	// is paging work, even though no fault triggered it.
	defer r.Clock.SetCategory(r.Clock.SetCategory(sim.CatPaging))
	victims := r.Policy.PickVictims(r, want)
	if len(victims) == 0 {
		return 0, nil
	}
	if len(victims) > want {
		// Policies may round up (whole clusters, eviction batches); honour
		// the policy — partial cluster eviction would leak.
		want = len(victims)
	}
	// The balloon path always uses the SGXv1 driver mechanism: the SGXv2
	// software path needs enclave mode for EACCEPT.
	savedMech := r.Mech
	r.Mech = MechSGX1
	defer func() { r.Mech = savedMech }()
	if err := r.evictPages(victims); err != nil {
		return 0, err
	}
	r.m.Add(metrics.CntBalloonEvictions, uint64(len(victims)))
	return len(victims), nil
}
