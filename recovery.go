package autarky

import (
	"autarky/internal/fault"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
)

// Fault-injection and recovery types re-exported into the public API.
type (
	// FaultPlan is a deterministic fault schedule for WithFaultPlan: seeded
	// per-operation probabilities of blob corruption, truncation, stale
	// replay, transient unavailability and latency spikes. Every injection
	// is a pure function of (seed, cycle, enclave, page, op), so the same
	// plan over the same run injects exactly the same faults.
	FaultPlan = fault.Plan
	// RetryPolicy bounds the driver's deterministic retry of unavailable
	// backend operations (see WithRetryPolicy).
	RetryPolicy = hostos.RetryPolicy
	// Checkpoint is a sealed, opaque snapshot of an enclave process,
	// produced by Proc.Checkpoint and consumed by Machine.Restore.
	Checkpoint = libos.Checkpoint
	// BlobError attaches the failing blob's key (enclave, page, operation)
	// to a backend error; errors.As recovers it through any wrapping.
	BlobError = pagestore.BlobError
)

// Storage-failure sentinels. The integrity family wraps ErrIntegrity, so
// errors.Is(err, ErrIntegrity) matches the whole tampering class;
// ErrUnavailable deliberately does not — availability problems are
// retryable, integrity problems never are.
var (
	// ErrIntegrity is the class of blobs that failed authentication.
	ErrIntegrity = pagestore.ErrIntegrity
	// ErrTruncated refines ErrIntegrity: the blob is too short to be a
	// sealed page.
	ErrTruncated = pagestore.ErrTruncated
	// ErrStaleVersion refines ErrIntegrity: the blob is an old version
	// replayed by the host.
	ErrStaleVersion = pagestore.ErrStaleVersion
	// ErrWrongEnclave refines ErrIntegrity: the blob was sealed for a
	// different enclave.
	ErrWrongEnclave = pagestore.ErrWrongEnclave
	// ErrUnavailable marks a backing store that transiently refused an
	// operation (retry and fallback absorb it; unrecovered it terminates
	// the enclave).
	ErrUnavailable = pagestore.ErrUnavailable
	// ErrBadCheckpoint marks a checkpoint blob that failed its
	// authentication or framing checks.
	ErrBadCheckpoint = sgx.ErrBadCheckpoint
)

// DefaultRetryPolicy is the stock driver retry policy: four tries with
// exponential backoff from 2000 cycles, capped at 32000.
func DefaultRetryPolicy() RetryPolicy { return hostos.DefaultRetryPolicy() }

// WithFaultPlan installs a deterministic fault injector outermost in the
// paging-backend stack, so every kernel-visible evict/fetch is exposed to
// the plan's corruption, truncation, replay, unavailability and delay
// injections. Recovery layers configured with WithRetryPolicy and
// WithFallbackStore wrap the injector, exactly as they would wrap a real
// misbehaving store. Invalid plans are reported as a *ConfigError from the
// first Spawn.
func WithFaultPlan(plan FaultPlan) Option {
	return func(c *machineConfig) { p := plan; c.faultPlan = &p }
}

// WithRetryPolicy gives the driver deterministic retry: backend operations
// refused with ErrUnavailable are re-issued under capped exponential
// backoff, each wait charged to the machine's clock (CatPaging). Retries
// and exhausted give-ups surface as the backend.retries and
// backend.giveups counters.
// Invalid policies are reported as a *ConfigError from the first Spawn.
func WithRetryPolicy(policy RetryPolicy) Option {
	return func(c *machineConfig) { p := policy; c.retry = &p }
}

// WithFallbackStore arms degraded-mode operation: every eviction is
// mirrored into a secondary backing stack (nil spec = a plain store), and
// when the primary stack stays unavailable past the retry budget, fetches
// and evictions degrade to the mirror instead of terminating the enclave.
// Integrity failures are never masked — the mirror answers availability
// problems only.
func WithFallbackStore(spec *BackingStore) Option {
	return func(c *machineConfig) { c.fallback = spec; c.fallbackSet = true }
}

// Restore rebuilds an enclave process from a sealed checkpoint and registers
// it with the machine's scheduler, so crash-and-restore slots into the
// ordinary Spawn/Start/Wait flow. The dead incarnation occupying the
// checkpoint's address range is torn down; the restored enclave is a fresh
// identity (restart stays detectable) whose measurement must match the
// checkpoint before the captured pages and progress are replayed into it.
// The end-to-end cost is counted in restore.restores and restore.cycles.
func (m *Machine) Restore(cp *Checkpoint) (*Proc, error) {
	if m.optErr != nil {
		return nil, m.optErr
	}
	p, err := libos.Restore(m.Kernel, cp)
	if err != nil {
		return nil, err
	}
	return &Proc{Process: p, m: m}, nil
}
