package libos

import (
	"bytes"
	"fmt"

	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/sgx"
)

// This file implements enclave checkpoint/restore on the shared sealed-state
// path (state.go). A checkpoint is a recovery point: the source stays live,
// the envelope carries its current migration epoch, and the OS may restore
// it any number of times, each time into a fresh enclave identity.

// Checkpoint is a sealed, opaque snapshot of an enclave process. The OS can
// store or transport it but cannot read or undetectably modify it.
type Checkpoint struct {
	// Sealed is the authenticated envelope (see sgx.CPU.SealEnvelope,
	// sgx.UseCheckpoint).
	Sealed []byte
}

// Checkpoint captures the process's state into a sealed blob. The enclave
// must be alive and not currently executing; capture drives the real access
// path (faulting evicted pages back in), so a hostile backing store can make
// a checkpoint attempt fail — the caller keeps its previous checkpoint in
// that case.
func (p *Process) Checkpoint() (*Checkpoint, error) {
	sealed, npages, err := p.sealState(sgx.UseCheckpoint, p.Proc.E.MigrationEpoch())
	if err != nil {
		return nil, err
	}
	m := metrics.Of(p.Kernel.Clock)
	m.Inc(metrics.CntCheckpoints)
	m.Add(metrics.CntCheckpointPages, uint64(npages))
	return &Checkpoint{Sealed: bytes.Clone(sealed)}, nil
}

// Restore rebuilds a process from a sealed checkpoint on the given kernel.
// The previous incarnation, if still occupying the checkpoint's address
// range, must be dead; it is torn down first. The restored enclave is a
// fresh identity loaded from the same image and configuration, resuming at
// the checkpoint's migration epoch — Restore verifies the measurement
// matches the checkpoint before replaying the captured pages and progress
// counter into it. A successful restore and its end-to-end cycles are
// counted in CntRestores and CntRestoreCycles.
func Restore(k *hostos.Kernel, cp *Checkpoint) (*Process, error) {
	if cp == nil || len(cp.Sealed) == 0 {
		return nil, fmt.Errorf("libos: restore from empty checkpoint: %w", sgx.ErrBadCheckpoint)
	}
	start := k.Clock.Cycles()
	p, err := openState(k, cp.Sealed, sgx.UseCheckpoint, nil)
	if err != nil {
		return nil, err
	}
	m := metrics.Of(k.Clock)
	m.Inc(metrics.CntRestores)
	m.Add(metrics.CntRestoreCycles, k.Clock.Cycles()-start)
	return p, nil
}
