package pagestore

import "autarky/internal/mmu"

// PagingBackend is the storage layer beneath every paging path: the
// repository that holds sealed page blobs while their pages are out of EPC.
// Both paging mechanisms end here — the hardware path when EWB hands a
// sealed page to the OS (and ELDU asks for it back), and the SGXv2 software
// path when the runtime moves self-sealed blobs through the driver — so a
// single implementation of this interface serves every eviction/fetch path
// in the system.
//
// Backends compose: the plain *Store is the terminal backend, and wrapping
// backends (the write-back CachedBackend here, the oblivious oram.Backend)
// layer policies on top of any inner backend. Contract for implementations:
//
//   - Determinism: identical call sequences must produce identical state,
//     identical results and identical cycle charges. No map-iteration
//     ordering, no wall-clock, no global state.
//   - Cycle accounting: every cycle a backend charges must go through
//     Clock.ChargeAs / ChargeAmbient / a SetCategory scope so attribution
//     stays exact. A backend that models free in-RAM storage (the plain
//     Store) charges nothing.
//   - Blobs are opaque: a backend never inspects or re-keys ciphertext; the
//     sealing layer alone guarantees confidentiality, integrity and
//     freshness. A backend that loses or reorders blobs is indistinguishable
//     from an attacker and is caught by the unseal checks upstream.
//   - Buffer ownership: the ciphertext of a blob passed to EvictBatch
//     belongs to the caller and is valid only for the duration of the call —
//     callers seal into reused arenas, so a backend that retains a blob
//     beyond the call (a store slot, a cache entry, an attack archive) must
//     copy it. Symmetrically, the ciphertext of a blob FetchBatch returns
//     belongs to the backend and is valid only until the next operation on
//     the backend stack; callers must unseal (or copy) before issuing
//     another backend call. This is what lets the hot paging paths move
//     sealed pages without allocating per blob.
//
// Every backend evicts and fetches only in batches. Both paging mechanisms
// share that one path: the SGXv2 runtime hands whole victim sets through the
// driver, and EWB/ELDU hand over a batch of one held on the enclave.
// EvictBatch stores the sealed blobs for (enclave, page); FetchBatch returns
// the most recent blob stored for each page (ErrNotFound if none); Drop
// discards a blob after a successful page-in. Wrapping backends may process
// a batch as one pass to amortize their own bookkeeping, but the per-blob
// movement costs they model must not silently disappear.
//
// Evict and Fetch remain only as batch-of-one adapters (EvictOne, FetchOne)
// for the benchmark's pass-through wrapper, which implements and calls
// them; nothing else in the module calls them. They go with the next change
// to the benchmark.
type PagingBackend interface {
	// Name identifies the backend stack in experiment output ("store",
	// "cache(64)+store", "oram(4096)+store", ...).
	Name() string
	// Evict stores the sealed blob for the page, as EvictOne does.
	Evict(enclaveID uint64, va mmu.VAddr, b Blob) error
	// Fetch returns the current sealed blob for the page, as FetchOne does.
	Fetch(enclaveID uint64, va mmu.VAddr) (Blob, error)
	// Drop discards the blob for the page (after a successful restore).
	Drop(enclaveID uint64, va mmu.VAddr) error
	// EvictBatch stores a whole victim set in one pipelined pass.
	EvictBatch(enclaveID uint64, pages []PageBlob) error
	// FetchBatch fills out[i] with the blob for pages[i]. out must be at
	// least len(pages) long; the caller provides (and reuses) it so batch
	// fetches move no slice headers through the heap. On error the contents
	// of out are unspecified.
	FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []Blob) error
}

// PageBlob pairs one page address with its sealed contents for batch
// eviction.
type PageBlob struct {
	VA   mmu.VAddr
	Blob Blob
}

// EvictOne stores one sealed blob as a batch of one.
func EvictOne(b PagingBackend, enclaveID uint64, va mmu.VAddr, blob Blob) error {
	return b.EvictBatch(enclaveID, []PageBlob{{VA: va, Blob: blob}})
}

// FetchOne fetches one sealed blob as a batch of one.
func FetchOne(b PagingBackend, enclaveID uint64, va mmu.VAddr) (Blob, error) {
	var out [1]Blob
	if err := b.FetchBatch(enclaveID, []mmu.VAddr{va}, out[:]); err != nil {
		return Blob{}, err
	}
	return out[0], nil
}

// --- plain Store as the terminal backend ----------------------------------

var _ PagingBackend = (*Store)(nil)

// Name implements PagingBackend.
func (st *Store) Name() string { return "store" }

// Evict implements PagingBackend.
func (st *Store) Evict(enclaveID uint64, va mmu.VAddr, b Blob) error {
	return EvictOne(st, enclaveID, va, b)
}

// Fetch implements PagingBackend.
func (st *Store) Fetch(enclaveID uint64, va mmu.VAddr) (Blob, error) {
	return FetchOne(st, enclaveID, va)
}

// Drop implements PagingBackend over Delete.
func (st *Store) Drop(enclaveID uint64, va mmu.VAddr) error {
	st.Delete(enclaveID, va)
	return nil
}

// EvictBatch implements PagingBackend over Put. The plain store models
// ordinary untrusted RAM: the copy cost is already part of the EWB/driver-call
// costs charged by the callers, so it charges nothing itself.
func (st *Store) EvictBatch(enclaveID uint64, pages []PageBlob) error {
	for _, pb := range pages {
		st.Put(enclaveID, pb.VA, pb.Blob)
	}
	return nil
}

// FetchBatch implements PagingBackend over Get. A missing blob is reported
// with its key attached (BlobError), so the caller knows which page of the
// batch failed.
func (st *Store) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []Blob) error {
	for i, va := range pages {
		b, err := st.Get(enclaveID, va)
		if err != nil {
			return wrapBlobErr(err, "fetch", enclaveID, va)
		}
		out[i] = b
	}
	return nil
}
