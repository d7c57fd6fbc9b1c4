package attack

import (
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
)

// Rollback is the host's rollback attack on its own backing store: a
// pass-through paging backend that keeps each page's first evicted blob and
// can later write that stale but authentic blob back beneath itself. The
// store is attacker-controlled memory, so a replay needs nothing but a copy
// of old traffic; freshness rests on the trusted version counter alone.
// Install it with hostos.Kernel.SetBackend before any enclave loads.
type Rollback struct {
	inner   pagestore.PagingBackend
	archive pagestore.Archive
}

var _ pagestore.PagingBackend = (*Rollback)(nil)

// NewRollback records the traffic evicted to inner.
func NewRollback(inner pagestore.PagingBackend) *Rollback {
	return &Rollback{inner: inner}
}

// Replay writes the page's first recorded blob beneath the layer, in place
// of whatever the inner backend holds — the classic rollback. It reports
// whether a newer blob has been evicted since, so that the replayed one is
// stale.
func (r *Rollback) Replay(enclaveID uint64, va mmu.VAddr) bool {
	b, ok := r.archive.Oldest(enclaveID, va)
	if ok {
		ok = r.inner.EvictBatch(enclaveID, []pagestore.PageBlob{{VA: va, Blob: b}}) == nil
	}
	return ok
}

// Name implements pagestore.PagingBackend: the layer is invisible.
func (r *Rollback) Name() string { return r.inner.Name() }

// Evict implements pagestore.PagingBackend.
func (r *Rollback) Evict(enclaveID uint64, va mmu.VAddr, b pagestore.Blob) error {
	return pagestore.EvictOne(r, enclaveID, va, b)
}

// Fetch implements pagestore.PagingBackend.
func (r *Rollback) Fetch(enclaveID uint64, va mmu.VAddr) (pagestore.Blob, error) {
	return pagestore.FetchOne(r, enclaveID, va)
}

// Drop implements pagestore.PagingBackend.
func (r *Rollback) Drop(enclaveID uint64, va mmu.VAddr) error {
	return r.inner.Drop(enclaveID, va)
}

// EvictBatch implements pagestore.PagingBackend: it records every blob,
// then passes the batch down.
func (r *Rollback) EvictBatch(enclaveID uint64, pages []pagestore.PageBlob) error {
	for _, pb := range pages {
		r.archive.Record(enclaveID, pb.VA, pb.Blob)
	}
	return r.inner.EvictBatch(enclaveID, pages)
}

// FetchBatch implements pagestore.PagingBackend.
func (r *Rollback) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	return r.inner.FetchBatch(enclaveID, pages, out)
}
