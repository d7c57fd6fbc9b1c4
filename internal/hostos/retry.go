package hostos

import (
	"errors"
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// This file gives the driver deterministic retry: a PagingBackend wrapper
// that re-issues operations refused with pagestore.ErrUnavailable, under a
// capped exponential backoff whose waits are charged to the simulated clock
// (CatPaging) — so recovery costs real, attributed cycles and the whole
// schedule stays reproducible. Any other error (including every integrity
// failure) is surfaced immediately: retrying a blob the sealing layer will
// reject anyway only hides the attack.
//
// Because the fault layer keys its injections on the clock cycle, charging
// the backoff is also what makes retry *work*: the re-issued operation
// happens at a later cycle and re-rolls the outage.

// RetryPolicy bounds the driver's retry loop.
type RetryPolicy struct {
	// Attempts is the total number of tries per operation (first try
	// included). 1 disables retry; 0 is invalid.
	Attempts int
	// BackoffBase is the cycle charge before the first re-attempt; each
	// further re-attempt doubles it.
	BackoffBase uint64
	// BackoffCap clamps the per-attempt backoff charge.
	BackoffCap uint64
}

// DefaultRetryPolicy is the stock driver policy: four tries with backoff
// 2000, 4000, 8000 cycles (uncapped until 32000).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 4, BackoffBase: 2000, BackoffCap: 32000}
}

// RetryPolicyError is a validation failure that names the offending
// RetryPolicy field ("Attempts", "BackoffBase", "BackoffCap"), so callers
// building user-facing configuration errors can point at the exact knob.
type RetryPolicyError struct {
	Field  string
	Reason string
}

func (e *RetryPolicyError) Error() string {
	return fmt.Sprintf("hostos: retry %s %s", e.Field, e.Reason)
}

// Validate rejects malformed policies with a field-specific
// *RetryPolicyError.
func (rp RetryPolicy) Validate() error {
	if rp.Attempts < 1 {
		return &RetryPolicyError{Field: "Attempts",
			Reason: fmt.Sprintf("= %d, want >= 1", rp.Attempts)}
	}
	if rp.Attempts > 1 && rp.BackoffBase == 0 {
		return &RetryPolicyError{Field: "BackoffBase",
			Reason: fmt.Sprintf("= 0 with Attempts = %d (retries must cost cycles)", rp.Attempts)}
	}
	if rp.BackoffCap > 0 && rp.BackoffCap < rp.BackoffBase {
		return &RetryPolicyError{Field: "BackoffCap",
			Reason: fmt.Sprintf("= %d below BackoffBase = %d", rp.BackoffCap, rp.BackoffBase)}
	}
	return nil
}

// backoff is the cycle charge before re-attempt number retry (1-based).
func (rp RetryPolicy) backoff(retry int) uint64 {
	b := rp.BackoffBase
	for i := 1; i < retry; i++ {
		b <<= 1
		if rp.BackoffCap > 0 && b >= rp.BackoffCap {
			return rp.BackoffCap
		}
	}
	if rp.BackoffCap > 0 && b > rp.BackoffCap {
		return rp.BackoffCap
	}
	return b
}

// RetryBackend wraps a PagingBackend with the retry policy. Batch
// operations are re-issued whole: evictions into the store are idempotent
// puts, and fetches have no side effects, so a re-run batch is safe.
type RetryBackend struct {
	inner  pagestore.PagingBackend
	policy RetryPolicy
	clock  *sim.Clock
	meter  *metrics.Metrics
}

var _ pagestore.PagingBackend = (*RetryBackend)(nil)

// NewRetryBackend wraps inner with the policy. The policy must validate.
func NewRetryBackend(inner pagestore.PagingBackend, policy RetryPolicy, clock *sim.Clock) *RetryBackend {
	if err := policy.Validate(); err != nil {
		panic(err)
	}
	return &RetryBackend{inner: inner, policy: policy, clock: clock, meter: metrics.Of(clock)}
}

// Name implements pagestore.PagingBackend.
func (r *RetryBackend) Name() string {
	return fmt.Sprintf("retry(%d)+%s", r.policy.Attempts, r.inner.Name())
}

// do runs op under the retry policy.
func (r *RetryBackend) do(op func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !errors.Is(err, pagestore.ErrUnavailable) {
			return err
		}
		if attempt >= r.policy.Attempts {
			r.meter.Inc(metrics.CntBackendGiveups)
			return err
		}
		r.clock.ChargeAs(sim.CatPaging, r.policy.backoff(attempt))
		r.meter.Inc(metrics.CntBackendRetries)
	}
}

// Evict implements pagestore.PagingBackend.
func (r *RetryBackend) Evict(enclaveID uint64, va mmu.VAddr, b pagestore.Blob) error {
	return pagestore.EvictOne(r, enclaveID, va, b)
}

// Fetch implements pagestore.PagingBackend.
func (r *RetryBackend) Fetch(enclaveID uint64, va mmu.VAddr) (pagestore.Blob, error) {
	return pagestore.FetchOne(r, enclaveID, va)
}

// Drop implements pagestore.PagingBackend.
func (r *RetryBackend) Drop(enclaveID uint64, va mmu.VAddr) error {
	return r.do(func() error { return r.inner.Drop(enclaveID, va) })
}

// EvictBatch implements pagestore.PagingBackend.
func (r *RetryBackend) EvictBatch(enclaveID uint64, pages []pagestore.PageBlob) error {
	return r.do(func() error { return r.inner.EvictBatch(enclaveID, pages) })
}

// FetchBatch implements pagestore.PagingBackend. A retried batch simply
// refills out.
func (r *RetryBackend) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	return r.do(func() error { return r.inner.FetchBatch(enclaveID, pages, out) })
}
