package pagestore

import (
	"errors"
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// FallbackBackend degrades gracefully when the primary storage stack stops
// answering: every eviction is mirrored into a secondary stack first, and a
// fetch (or eviction) the primary refuses with ErrUnavailable is served by
// the mirror instead of surfacing upward. Integrity failures are *not*
// masked — the secondary only answers availability problems; a tampered
// blob still reaches the sealing checks and still terminates the enclave.
//
// The mirror costs one blob copy per eviction (CntBackendMirrors) — the
// price of the redundancy — and every operation the secondary absorbs is
// counted in CntBackendFallbacks. A fetch also falls back on ErrNotFound:
// when the primary was unavailable at eviction time, the only copy of the
// blob lives in the mirror.
type FallbackBackend struct {
	primary   PagingBackend
	secondary PagingBackend
	clock     *sim.Clock
	costs     sim.Costs
	meter     *metrics.Metrics
}

var _ PagingBackend = (*FallbackBackend)(nil)

// NewFallbackBackend layers the degraded-mode mirror over primary.
func NewFallbackBackend(primary, secondary PagingBackend, clock *sim.Clock, costs sim.Costs) *FallbackBackend {
	return &FallbackBackend{
		primary:   primary,
		secondary: secondary,
		clock:     clock,
		costs:     costs,
		meter:     metrics.Of(clock),
	}
}

// Name implements PagingBackend.
func (fb *FallbackBackend) Name() string {
	return fmt.Sprintf("fallback(%s|%s)", fb.primary.Name(), fb.secondary.Name())
}

// fallsBack reports whether err is the class of failure the mirror absorbs.
func fallsBack(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotFound)
}

// Evict implements PagingBackend.
func (fb *FallbackBackend) Evict(enclaveID uint64, va mmu.VAddr, b Blob) error {
	return EvictOne(fb, enclaveID, va, b)
}

// Fetch implements PagingBackend.
func (fb *FallbackBackend) Fetch(enclaveID uint64, va mmu.VAddr) (Blob, error) {
	return FetchOne(fb, enclaveID, va)
}

// Drop implements PagingBackend: both levels forget the blob; an outage or
// a miss on either side is not an error for a discard.
func (fb *FallbackBackend) Drop(enclaveID uint64, va mmu.VAddr) error {
	if err := fb.secondary.Drop(enclaveID, va); err != nil && !fallsBack(err) {
		return err
	}
	if err := fb.primary.Drop(enclaveID, va); err != nil && !fallsBack(err) {
		return err
	}
	return nil
}

// EvictBatch implements PagingBackend: the whole victim set is mirrored
// first (so the secondary always holds the freshest blobs), then offered to
// the primary; a primary outage degrades to mirror-only instead of failing
// the eviction.
func (fb *FallbackBackend) EvictBatch(enclaveID uint64, pages []PageBlob) error {
	fb.clock.ChargeAs(sim.CatPaging, uint64(len(pages))*fb.costs.BlobCopy)
	fb.meter.Add(metrics.CntBackendMirrors, uint64(len(pages)))
	if err := fb.secondary.EvictBatch(enclaveID, pages); err != nil {
		return err
	}
	if err := fb.primary.EvictBatch(enclaveID, pages); err != nil {
		if errors.Is(err, ErrUnavailable) {
			fb.meter.Inc(metrics.CntBackendFallbacks)
			return nil
		}
		return err
	}
	return nil
}

// FetchBatch implements PagingBackend: the primary serves the batch when it
// can; on an outage, or on a blob the primary never received, the mirror
// serves the whole batch. It can, because each eviction reaches the mirror
// before the primary, so the mirror holds every blob.
func (fb *FallbackBackend) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []Blob) error {
	err := fb.primary.FetchBatch(enclaveID, pages, out)
	if err == nil || !fallsBack(err) {
		return err
	}
	fb.meter.Add(metrics.CntBackendFallbacks, uint64(len(pages)))
	fb.clock.ChargeAs(sim.CatPaging, uint64(len(pages))*fb.costs.BlobCopy)
	return fb.secondary.FetchBatch(enclaveID, pages, out)
}
