// Package sgx is an instruction-level architectural model of Intel SGX
// memory management, extended with the Autarky ISA changes (paper §5.1).
//
// The model covers the structures and instruction flows that the
// controlled-channel attack and its defense depend on:
//
//   - the enclave page cache (EPC) and EPC map (EPCM), with the extra
//     translation checks applied on TLB misses in enclave mode;
//   - enclave entry/exit (EENTER, EEXIT), asynchronous exits (AEX) with
//     state-save-area (SSA) frames, and ERESUME;
//   - OS-driven demand paging (EBLOCK, ETRACK, EWB, ELDU) with sealed,
//     versioned page blobs;
//   - SGXv2 dynamic memory management (EAUG, EACCEPT, EACCEPTCOPY, EMODPR,
//     EMODT, EREMOVE);
//   - the Autarky additions, gated on an attested enclave attribute:
//     full fault-address masking, the per-TCS pending-exception flag, the
//     accessed/dirty-bits-must-be-set rule, and the optional AEX-eliding
//     and in-enclave-resume optimizations.
//
// Anything the OS does (mapping pages, injecting faults, clearing A/D bits)
// goes through internal/mmu structures it fully controls; everything here
// models what the trusted hardware enforces on top.
package sgx

import (
	"errors"

	"autarky/internal/pagestore"
)

// Attributes is the enclave attribute word. It is part of the enclave's
// measured identity: flipping a bit changes the measurement, so a relying
// party can require self-paging mode at attestation time (paper §5.1.1).
type Attributes uint64

const (
	// AttrSGX2 enables the SGXv2 dynamic memory-management instructions.
	AttrSGX2 Attributes = 1 << iota
	// AttrSelfPaging is Autarky's new attribute bit: it enables fault
	// masking, the pending-exception protocol and the A/D-bit rule.
	AttrSelfPaging
	// AttrElideAEX is the paper's more intrusive optional optimization
	// (§5.1.3 "Eliding AEX"): page faults inside a self-paging enclave stay
	// in enclave mode and vector directly to the enclave handler via a
	// simulated nested entry, skipping AEX, the OS handler and EENTER.
	AttrElideAEX
	// AttrInEnclaveResume models the proposed in-enclave ERESUME variant
	// (§5.1.3 "Resuming from exceptions"): the handler restores the faulting
	// context itself instead of EEXITing to a stub that ERESUMEs.
	AttrInEnclaveResume
)

// Has reports whether all bits of q are set in a.
func (a Attributes) Has(q Attributes) bool { return a&q == q }

// Errors surfaced by the SGX model. They correspond to architectural fault
// or failure conditions, not to Go-level misuse (which panics).
var (
	// ErrPendingException is returned by ERESUME when the TCS
	// pending-exception flag is set: the OS must re-enter the enclave
	// through its entry point first (paper §5.1.3).
	ErrPendingException = errors.New("sgx: ERESUME blocked by pending exception flag")
	// ErrEnclaveTerminated is returned once the trusted runtime has killed
	// the enclave (e.g. on attack detection); no instruction can revive it
	// short of recreating the enclave, which the threat model treats as a
	// detectable restart (paper §3).
	ErrEnclaveTerminated = errors.New("sgx: enclave terminated")
	// ErrNotInitialized is returned when entering an enclave before EINIT.
	ErrNotInitialized = errors.New("sgx: enclave not initialized")
	// ErrEPCFull is returned when no EPC frame is free.
	ErrEPCFull = errors.New("sgx: EPC full")
	// ErrEPCMConflict covers illegal EPCM state transitions (double-add,
	// evicting an unblocked page, accepting a non-pending page, ...).
	ErrEPCMConflict = errors.New("sgx: EPCM state conflict")
	// ErrNotTracked is returned by EWB when the eviction protocol was not
	// followed (EBLOCK + ETRACK + TLB shootdown).
	ErrNotTracked = errors.New("sgx: EWB without completed ETRACK epoch")
	// ErrSSAExhausted is returned when an AEX cannot push a state-save
	// frame because the SSA stack is full; the enclave is un-executable
	// until frames are popped (paper §5.1.3 footnote).
	ErrSSAExhausted = errors.New("sgx: SSA stack exhausted")
	// ErrOutsideEnclave is returned for enclave-only operations attempted
	// outside enclave mode, and vice versa.
	ErrOutsideEnclave = errors.New("sgx: operation in wrong CPU mode")
	// ErrBadAddress is returned for addresses outside the enclave's ELRANGE
	// where one is required.
	ErrBadAddress = errors.New("sgx: address outside enclave range")
)

// ErrRateLimited is the one canonical rate-limit sentinel: the enclave's
// legitimate fault rate exceeded the configured bound (paper §5.2.4). The
// core policy layer and the public facade alias it rather than defining
// their own, and TerminationError unwraps to it, so errors.Is matches the
// condition at every layer. The message carries no package prefix because
// it predates this definition in internal/core and is part of rendered
// experiment output.
var ErrRateLimited = errors.New("fault rate bound exceeded")

// TerminationReason records why the trusted runtime killed its enclave.
type TerminationReason int

// Termination reasons, reported by the runtime and inspected by tests and
// the attack demos.
const (
	// TerminateNone means the enclave is alive.
	TerminateNone TerminationReason = iota
	// TerminateAttackDetected: an OS-induced fault on a page the runtime
	// believed resident (or an A/D-bit probe) was detected.
	TerminateAttackDetected
	// TerminateRateLimit: the legitimate fault rate exceeded the
	// user-configured bound (paper §5.2.4).
	TerminateRateLimit
	// TerminateIntegrity: a swapped-in page failed its
	// integrity/freshness check.
	TerminateIntegrity
	// TerminateUnavailable: the backing store stayed unavailable through
	// every recovery layer (retries exhausted, no fallback) — the enclave
	// cannot make progress without its evicted pages.
	TerminateUnavailable
	// TerminatePolicy: any other policy-initiated shutdown.
	TerminatePolicy
	// TerminateMigrated: the enclave's state was sealed and handed off to
	// another machine; this incarnation is retired so the migration is a
	// move, never a fork.
	TerminateMigrated
)

// String names the reason.
func (r TerminationReason) String() string {
	switch r {
	case TerminateNone:
		return "none"
	case TerminateAttackDetected:
		return "attack-detected"
	case TerminateRateLimit:
		return "fault-rate-limit"
	case TerminateIntegrity:
		return "integrity-violation"
	case TerminateUnavailable:
		return "backing-unavailable"
	case TerminatePolicy:
		return "policy"
	case TerminateMigrated:
		return "migrated"
	default:
		return "unknown"
	}
}

// TerminationError is the error the model returns to whoever was driving an
// enclave that its trusted runtime terminated.
type TerminationError struct {
	Reason TerminationReason
	Detail string
	// Cause, when non-nil, is the concrete error that triggered the
	// termination (a refined unseal failure, a blob-keyed batch error, an
	// exhausted retry budget). It preserves the full errors.Is chain through
	// the termination: a replay-induced kill still matches
	// pagestore.ErrStaleVersion, not just the ErrIntegrity class.
	Cause error
}

// Error implements the error interface.
func (e *TerminationError) Error() string {
	return "sgx: enclave terminated: " + e.Reason.String() + ": " + e.Detail
}

// Unwrap exposes the concrete cause when one was recorded; otherwise it
// maps the termination reason onto the matching condition sentinel. Either
// way errors.Is sees through a termination: a rate-limit termination
// matches ErrRateLimited (and the aliases of it in core and the facade), an
// integrity termination matches pagestore.ErrIntegrity, an availability
// termination matches pagestore.ErrUnavailable.
func (e *TerminationError) Unwrap() error {
	if e.Cause != nil {
		return e.Cause
	}
	switch e.Reason {
	case TerminateRateLimit:
		return ErrRateLimited
	case TerminateIntegrity:
		return pagestore.ErrIntegrity
	case TerminateUnavailable:
		return pagestore.ErrUnavailable
	default:
		return nil
	}
}
