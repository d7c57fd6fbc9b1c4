package libos

import (
	"bytes"
	"fmt"

	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/sgx"
)

// This file implements the libos half of live migration on the shared
// sealed-state path (state.go): quiesce the process, seal its state into a
// freshness-stamped envelope and retire the source incarnation — then, on
// the destination, authenticate, verify freshness against the counter
// service, and rebuild the enclave under the destination machine's EPC
// geometry and cost model, re-sealing every page under the destination
// identity.

// Migration is a sealed, self-contained unit of enclave state in transit
// between machines. The host (and the fleet layer) can store and transport
// it but cannot read or undetectably modify it; its freshness epoch and
// source measurement ride in the envelope's authenticated header.
type Migration struct {
	// Sealed is the authenticated envelope (see sgx.CPU.SealEnvelope,
	// sgx.UseMigration).
	Sealed []byte
}

// Migrate quiesces the process and produces its migration envelope: the
// writable image, progress counter and anti-replay versions are captured at
// CSSA 0, encoded, sealed under the platform migration key with freshness
// epoch MigrationEpoch()+1, and the source incarnation is retired — after
// Migrate returns successfully this process can never run again, and every
// kernel service on its handle reports hostos.ErrMigrated. On error the
// process is untouched and still runnable.
//
// The caller must have drained the process's scheduling (sched.Drain) and
// serving (service.Server.Drain) first; Migrate itself only guards the
// enclave-level preconditions.
func (p *Process) Migrate() (*Migration, error) {
	sealed, npages, err := p.sealState(sgx.UseMigration, p.Proc.E.MigrationEpoch()+1)
	if err != nil {
		return nil, err
	}
	// The envelope leaves this machine; it must own its bytes, not alias
	// the process's scratch (which the retire below makes dead anyway).
	blob := bytes.Clone(sealed)
	if err := p.Kernel.RetireEnclave(p.Proc); err != nil {
		return nil, fmt.Errorf("libos: retiring migrated enclave: %w", err)
	}
	m := metrics.Of(p.Kernel.Clock)
	m.Inc(metrics.CntMigrations)
	m.Add(metrics.CntMigrationPages, uint64(npages))
	return &Migration{Sealed: blob}, nil
}

// Adopt completes a migration on the destination machine: authenticate the
// envelope, check its freshness epoch against the counter service, decode
// and validate the payload, rebuild the enclave under the destination's EPC
// geometry, cost model and backend stack (pages re-cluster and re-seal
// under the new identity via the ordinary load + write-replay path), and
// commit the epoch so the envelope can never be adopted again.
//
// The misuse taxonomy is deliberate and ordered: a structurally bad or
// tampered envelope fails with sgx.ErrBadCheckpoint before freshness is
// consulted; a replayed or superseded envelope fails with
// sgx.ErrStaleMigration; an envelope whose address range is still occupied
// by a live enclave fails with hostos.ErrEnclaveLive (adopt-while-running);
// a measurement mismatch after rebuild fails with sgx.ErrBadCheckpoint.
// Only a fully successful adopt advances the counter.
func Adopt(k *hostos.Kernel, mig *Migration, counters *sgx.CounterService) (*Process, error) {
	m := metrics.Of(k.Clock)
	if mig == nil || len(mig.Sealed) == 0 {
		m.Inc(metrics.CntAdoptsRejected)
		return nil, fmt.Errorf("libos: adopt of empty migration envelope: %w", sgx.ErrBadCheckpoint)
	}
	p, err := openState(k, mig.Sealed, sgx.UseMigration, counters)
	if err != nil {
		m.Inc(metrics.CntAdoptsRejected)
		return nil, err
	}
	m.Inc(metrics.CntAdopts)
	return p, nil
}
