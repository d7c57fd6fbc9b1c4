package autarky

import (
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/sgx"
)

// Live-migration types re-exported into the public API.
type (
	// Migration is a sealed, opaque image of a quiesced enclave process,
	// produced by Proc.Quiesce and consumed by Machine.Adopt. Unlike a
	// Checkpoint (a recovery artifact the source may replay many times), a
	// migration is a handoff: sealing it retires the source enclave, and
	// its freshness counter lets a CounterService reject every envelope but
	// the newest.
	Migration = libos.Migration
	// CounterService is the fleet's monotonic-counter freshness authority
	// (the paper's §7 counter-service design): each enclave measurement
	// maps to the highest migration epoch ever committed, and Adopt refuses
	// envelopes at or below it, closing the fork-and-replay channel.
	CounterService = sgx.CounterService
)

// Migration misuse sentinels.
var (
	// ErrStaleMigration marks a migration envelope whose freshness counter
	// is not strictly newer than the counter service's committed epoch — a
	// replayed or forked image.
	ErrStaleMigration = sgx.ErrStaleMigration
	// ErrMigrated marks kernel services invoked on an enclave that was
	// sealed and handed away; it refines ErrNotLoaded, so lifecycle code
	// that already handles stale handles keeps working.
	ErrMigrated = hostos.ErrMigrated
)

// NewCounterService builds an empty freshness authority. Share one service
// across every machine that may adopt the same tenants; a Fleet carries its
// own.
func NewCounterService() *CounterService { return sgx.NewCounterService() }

// Quiesce drains the process and seals it for migration. If the process is
// mid-run under the machine scheduler, only it is dispatched until its body
// returns (co-tenant dispatch is refused while it drains) — the caller must
// have arranged for the body to finish once its in-flight work is served,
// e.g. by draining its request frontend first. Sealing retires the source
// enclave: the process is dead afterwards (TerminationError, reason
// "migrated"), kernel services on it answer ErrMigrated, and a second
// Quiesce fails the same way. The image carries the enclave's measurement
// and next freshness epoch; only a machine sharing this machine's sealing
// root can open it.
func (p *Proc) Quiesce() (*Migration, error) {
	if p.task != nil && !p.task.Done() {
		if err := p.m.sched.Drain(p.task); err != nil {
			return nil, err
		}
	}
	return p.Process.Migrate()
}

// Adopt rebuilds an enclave process from a migration image and registers it
// with this machine's scheduler. The envelope must authenticate under the
// machine's sealing root; counters, when non-nil, must confirm the epoch is
// strictly fresher than anything previously committed for that measurement
// (nil skips the freshness check — single-trust-domain use only). A dead
// enclave occupying the image's address range is torn down; a live one
// refuses the adoption with ErrEnclaveLive. The rebuilt enclave is a fresh
// identity under this machine's cost model and paging stack — every page is
// re-sealed and re-clustered here — whose measurement must match the
// envelope before the captured pages and progress replay into it.
func (m *Machine) Adopt(mig *Migration, counters *CounterService) (*Proc, error) {
	if m.optErr != nil {
		return nil, m.optErr
	}
	p, err := libos.Adopt(m.Kernel, mig, counters)
	if err != nil {
		return nil, err
	}
	return &Proc{Process: p, m: m}, nil
}
