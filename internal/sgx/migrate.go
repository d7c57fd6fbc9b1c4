package sgx

import (
	"errors"
	"fmt"
)

// This file models the platform half of live enclave migration beyond the
// sealed envelope itself (envelope.go, UseMigration): retiring the source
// incarnation, and the monotonic-counter service that prevents an envelope
// from ever being adopted twice. The design follows "Migrating SGX Enclaves
// with Persistent State" (Alder et al.): a per-identity freshness counter
// held by a service both machines trust, and the source enclave retired so
// the handoff is a move, never a fork.

// ErrStaleMigration is returned when a migration envelope's freshness epoch
// is not strictly newer than the last epoch the counter service committed
// for that enclave identity: the envelope was already adopted (a replayed
// handoff would fork the enclave) or superseded by a later quiesce.
var ErrStaleMigration = errors.New("sgx: migration envelope is stale (freshness epoch already consumed)")

// RetireEnclave marks a quiesced enclave dead with the migration reason: its
// sealed state has been handed off, so this incarnation must never run again
// (resuming it would fork the enclave). Like every deliberate termination it
// is permanent; unlike CPU.Terminate it is invoked from outside enclave
// mode, after the final state capture has returned.
func (c *CPU) RetireEnclave(e *Enclave) {
	if c.cur != nil {
		panic("sgx: RetireEnclave while in enclave mode")
	}
	e.terminate(TerminateMigrated, "state sealed and handed off for migration")
}

// CounterService is the freshness authority of the migration protocol (the
// Alder et al. counter service): a monotonic counter per enclave identity,
// trusted by every machine in the deployment. Verify admits an envelope only
// if its epoch is strictly newer than the last committed one; Commit burns
// the epoch once the adopt succeeds. One service shared across a fleet
// closes the cross-machine replay window that per-machine state cannot see.
type CounterService struct {
	committed map[[32]byte]uint64
}

// NewCounterService returns an empty freshness authority.
func NewCounterService() *CounterService {
	return &CounterService{committed: make(map[[32]byte]uint64)}
}

// Verify checks that epoch is strictly newer than the last committed epoch
// for the identity, failing with ErrStaleMigration otherwise. It does not
// advance the counter — a failed adopt must not burn the envelope.
func (s *CounterService) Verify(meas [32]byte, epoch uint64) error {
	if last, ok := s.committed[meas]; ok && epoch <= last {
		return fmt.Errorf("%w: epoch %d, counter already at %d", ErrStaleMigration, epoch, last)
	}
	if epoch == 0 {
		return fmt.Errorf("%w: epoch 0 is never fresh", ErrStaleMigration)
	}
	return nil
}

// Commit records epoch as consumed for the identity. Called exactly once
// per successful adopt; committing a lower epoch than the current one is a
// protocol bug and panics.
func (s *CounterService) Commit(meas [32]byte, epoch uint64) {
	if last, ok := s.committed[meas]; ok && epoch <= last {
		panic("sgx: CounterService.Commit of a non-monotonic epoch")
	}
	s.committed[meas] = epoch
}

// Committed returns the last committed epoch for an identity (0 if none).
func (s *CounterService) Committed(meas [32]byte) uint64 { return s.committed[meas] }
