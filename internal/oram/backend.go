package oram

import (
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// Backend adapts PathORAM into a pagestore.PagingBackend, making oblivious
// page placement just another layer of the storage hierarchy. Every evict
// and fetch runs one ORAM access over a page-sized block tree, so the
// untrusted host observes only uniformly random path traffic instead of
// which page moved (the paper's §5.2.2 software scheme applied to swap
// placement). The sealed blob itself is delegated to the inner backend —
// the ORAM hides *where* pages live, while the sealing layer already hides
// *what* they contain — so Backend composes with any inner store, including
// the write-back CachedBackend.
//
// Pages are mapped to ORAM block ids on first eviction from a deterministic
// allocator (a LIFO free list fed by Drop, then a bump pointer), so
// identical call sequences always see identical id assignments, path
// choices and cycle charges.
type Backend struct {
	inner pagestore.PagingBackend
	o     *PathORAM
	costs sim.Costs
	meter *metrics.Metrics

	ids  map[pageKey]uint32
	free []uint32 // LIFO of ids released by Drop
	next uint32   // bump allocator above the free list
}

type pageKey struct {
	enclaveID uint64
	vpn       uint64
}

var _ pagestore.PagingBackend = (*Backend)(nil)

// NewBackend builds an oblivious-placement backend with the given slot
// count over inner. slots bounds how many pages can be swapped out at once
// across all enclaves sharing the backend; the facade validates
// user-supplied sizes. The ORAM runs in cached (Autarky) mode: its position
// map and stash are enclave-managed state, accessed directly.
func NewBackend(inner pagestore.PagingBackend, slots int, clock *sim.Clock, costs sim.Costs, seed uint64) *Backend {
	if slots < 1 {
		panic(fmt.Sprintf("oram: backend slots %d, want >= 1", slots))
	}
	c := costs
	return &Backend{
		inner: inner,
		o:     New(slots, mmu.PageSize, 4, clock, &c, seed),
		costs: costs,
		meter: metrics.Of(clock),
		ids:   make(map[pageKey]uint32),
	}
}

// Name implements pagestore.PagingBackend.
func (b *Backend) Name() string {
	return fmt.Sprintf("oram(%d)+%s", b.o.NumBlocks(), b.inner.Name())
}

// Evict implements pagestore.PagingBackend.
func (b *Backend) Evict(enclaveID uint64, va mmu.VAddr, blob pagestore.Blob) error {
	return pagestore.EvictOne(b, enclaveID, va, blob)
}

// Fetch implements pagestore.PagingBackend.
func (b *Backend) Fetch(enclaveID uint64, va mmu.VAddr) (pagestore.Blob, error) {
	return pagestore.FetchOne(b, enclaveID, va)
}

// Drop implements pagestore.PagingBackend, releasing the page's ORAM slot
// back to the free list. Dropping generates no tree traffic: the restore
// that precedes it already produced this access's path walk.
func (b *Backend) Drop(enclaveID uint64, va mmu.VAddr) error {
	k := pageKey{enclaveID, va.VPN()}
	if id, ok := b.ids[k]; ok {
		delete(b.ids, k)
		b.free = append(b.free, id)
	}
	return b.inner.Drop(enclaveID, va)
}

// EvictBatch implements pagestore.PagingBackend: one ORAM write access per
// page for the placement — obliviousness does not batch — while the payload
// blobs travel to the inner backend as one batch.
func (b *Backend) EvictBatch(enclaveID uint64, pages []pagestore.PageBlob) error {
	for _, pb := range pages {
		id, err := b.assign(enclaveID, pb.VA)
		if err != nil {
			return err
		}
		if err := b.o.Access(id, true, nil, nil); err != nil {
			return err
		}
		b.meter.Inc(metrics.CntBackendStores)
		b.meter.Add(metrics.CntBackendBytes, uint64(len(pb.Blob.Ciphertext)))
	}
	return b.inner.EvictBatch(enclaveID, pages)
}

// FetchBatch implements pagestore.PagingBackend, mirroring EvictBatch: one
// ORAM read access per page, payloads from the inner backend as one batch.
func (b *Backend) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	for _, va := range pages {
		id, ok := b.ids[pageKey{enclaveID, va.VPN()}]
		if !ok {
			continue // inner backend decides whether the page exists
		}
		if err := b.o.Access(id, false, nil, nil); err != nil {
			return err
		}
	}
	if err := b.inner.FetchBatch(enclaveID, pages, out); err != nil {
		return err
	}
	for i := range pages {
		b.meter.Inc(metrics.CntBackendLoads)
		b.meter.Add(metrics.CntBackendBytes, uint64(len(out[i].Ciphertext)))
	}
	return nil
}

// assign returns the page's ORAM block id, allocating one on first use.
func (b *Backend) assign(enclaveID uint64, va mmu.VAddr) (uint32, error) {
	k := pageKey{enclaveID, va.VPN()}
	if id, ok := b.ids[k]; ok {
		return id, nil
	}
	if n := len(b.free); n > 0 {
		id := b.free[n-1]
		b.free = b.free[:n-1]
		b.ids[k] = id
		return id, nil
	}
	if int(b.next) >= b.o.NumBlocks() {
		return 0, fmt.Errorf("oram: backend full: all %d slots in use", b.o.NumBlocks())
	}
	id := b.next
	b.next++
	b.ids[k] = id
	return id, nil
}
