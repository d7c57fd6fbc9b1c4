// Package pagestore implements the untrusted backing store for evicted
// enclave pages, together with the trusted sealing primitive that protects
// their confidentiality, integrity and freshness.
//
// It models two things from the paper:
//
//   - the EWB/ELDU hardware paging path, which "guarantees the integrity of
//     the swapped out contents, and protects against replay attacks"
//     (paper §2.1) using per-page version counters held in trusted VA pages;
//   - the SGXv2 software self-paging path, where "enclave software
//     implement[s] custom encryption" (paper §5.2.1) and stores page
//     contents "securely (encrypted and signed) in untrusted memory" (§6).
//
// Sealing uses AES-128-GCM with a per-enclave key. The nonce binds the
// page's virtual page number and its eviction version, and the additional
// data binds the enclave identity, so a blob can only be restored to the
// address it was evicted from, at the version the trusted side expects.
package pagestore

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"autarky/internal/mmu"
)

// Errors returned by Open.
var (
	// ErrIntegrity indicates the blob failed authentication: it was
	// tampered with, replayed (stale version), or bound to a different page.
	// Every refined unseal error below wraps it, so errors.Is(err,
	// ErrIntegrity) still matches the whole class.
	ErrIntegrity = errors.New("pagestore: page blob failed integrity/freshness check")
	// ErrNotFound indicates no blob is stored for the page.
	ErrNotFound = errors.New("pagestore: no blob for page")

	// The refined classifications are diagnostic: they are derived from the
	// blob's untrusted advisory fields, so an attacker can always disguise
	// one failure as another — but never as success, because the AEAD check
	// against the trusted version counter remains the sole authority.

	// ErrTruncated: the ciphertext is shorter than a sealed page can be.
	ErrTruncated = fmt.Errorf("%w: blob truncated", ErrIntegrity)
	// ErrStaleVersion: the blob advertises an eviction version older (or
	// newer) than the trusted counter expects — the shape of a replay.
	ErrStaleVersion = fmt.Errorf("%w: blob version is stale (replay?)", ErrIntegrity)
	// ErrWrongEnclave: the blob advertises another enclave's identity — it
	// was sealed under a different key and can never authenticate here.
	ErrWrongEnclave = fmt.Errorf("%w: blob sealed for a different enclave", ErrIntegrity)

	// ErrUnavailable indicates the backing store transiently refused the
	// operation (an injected outage, a withheld blob). It is an availability
	// failure, not an integrity one — it deliberately does not wrap
	// ErrIntegrity, because the right response is retry/fallback, not
	// termination-as-compromised.
	ErrUnavailable = errors.New("pagestore: backing store unavailable")
)

// BlobError attaches the failing blob's key to an error crossing a batch
// boundary, so callers of EvictBatch/FetchBatch learn which page in the
// batch failed rather than just that something did.
type BlobError struct {
	EnclaveID uint64
	VA        mmu.VAddr
	Op        string // "evict", "fetch", "drop"
	Err       error
}

// Error implements error.
func (e *BlobError) Error() string {
	return fmt.Sprintf("pagestore: %s enclave %d page %#x: %v", e.Op, e.EnclaveID, uint64(e.VA.PageBase()), e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BlobError) Unwrap() error { return e.Err }

// wrapBlobErr attaches the key unless the error already carries one (inner
// layers wrap first; outer layers pass the inner attribution through).
func wrapBlobErr(err error, op string, enclaveID uint64, va mmu.VAddr) error {
	if err == nil {
		return nil
	}
	var be *BlobError
	if errors.As(err, &be) {
		return err
	}
	return &BlobError{EnclaveID: enclaveID, VA: va, Op: op, Err: err}
}

// Blob is one sealed page as held in untrusted memory.
type Blob struct {
	Ciphertext []byte // AES-GCM ciphertext || tag
	// Version as claimed by the untrusted store. The trusted side never
	// relies on it; it is advisory (the real freshness check is the MAC
	// binding of the trusted version counter). Open uses it only to refine
	// an inevitable failure into ErrStaleVersion.
	Version uint64
	// EnclaveID as claimed by the untrusted store — advisory like Version
	// (the real binding is the per-enclave key and AAD). Open uses it only
	// to refine an inevitable failure into ErrWrongEnclave.
	EnclaveID uint64
}

// Sealer seals and opens pages for one enclave. It is trusted state: in the
// EWB/ELDU model it lives inside the CPU; in the SGXv2 software model it
// lives inside the enclave runtime.
//
// A Sealer is not safe for concurrent use: the nonce and AAD scratch below
// is reused across calls so the hot paging paths never allocate for header
// material. Every enclave owns its own Sealer, and the simulation is
// single-threaded per machine, so this costs nothing in practice.
type Sealer struct {
	aead      cipher.AEAD
	kern      *pageKey // nil unless the page kernel runs on this CPU
	enclaveID uint64

	// Reusable header scratch. The AEAD reads nonce and additional data
	// during the call and never retains them, so handing out views of these
	// arrays is safe. j0 is GCM's first counter block: the nonce, then a
	// big-endian 1 that NewSealer sets once.
	j0     [16]byte
	aadBuf [aadLen]byte
}

// NewSealer derives a sealing key for the enclave from a root secret.
// The derivation is a model of SGX's EGETKEY: deterministic per enclave,
// unknown to the OS.
func NewSealer(rootSecret []byte, enclaveID uint64) (*Sealer, error) {
	h := sha256.New()
	h.Write(rootSecret)
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], enclaveID)
	h.Write(idb[:])
	return newSealer(h.Sum(nil)[:16], enclaveID)
}

// newSealer builds the Sealer for a 16-byte AES key.
func newSealer(key []byte, enclaveID uint64) (*Sealer, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("pagestore: deriving sealing key: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pagestore: building AEAD: %w", err)
	}
	s := &Sealer{aead: aead, enclaveID: enclaveID}
	s.j0[15] = 1
	if useKernel {
		s.kern = new(pageKey)
		expandPageKey(s.kern, (*[16]byte)(key))
	}
	return s, nil
}

func (s *Sealer) nonce(va mmu.VAddr, version uint64) []byte {
	n := s.j0[:12]
	binary.LittleEndian.PutUint32(n[0:4], uint32(va.VPN()))
	binary.LittleEndian.PutUint64(n[4:12], version)
	return n
}

func (s *Sealer) aad(va mmu.VAddr, version uint64) []byte {
	a := s.aadBuf[:]
	binary.LittleEndian.PutUint64(a[0:8], s.enclaveID)
	binary.LittleEndian.PutUint64(a[8:16], uint64(va.PageBase()))
	binary.LittleEndian.PutUint64(a[16:24], version)
	return a
}

// SealedLen is the exact ciphertext length of one sealed page. Callers
// sizing arenas for SealAppend can rely on every sealed page occupying
// exactly this many bytes.
func (s *Sealer) SealedLen() int { return mmu.PageSize + s.aead.Overhead() }

// SealAppend encrypts one page for (va, version) and appends the ciphertext
// (including the tag) to dst, returning the extended slice. When dst has
// SealedLen spare capacity the call does not allocate, which is what keeps
// the paging hot paths allocation-free; the returned bytes never alias
// Sealer-internal state. len(plain) must be PageSize.
func (s *Sealer) SealAppend(dst []byte, va mmu.VAddr, version uint64, plain []byte) ([]byte, error) {
	if len(plain) != mmu.PageSize {
		return nil, fmt.Errorf("pagestore: sealing %d bytes, want %d", len(plain), mmu.PageSize)
	}
	nonce, aad := s.nonce(va, version), s.aad(va, version)
	if s.kern != nil && useKernel {
		// The kernel reads the nonce and AAD from s.j0 and s.aadBuf.
		return s.sealKernel(dst, plain), nil
	}
	return s.aead.Seal(dst, nonce, plain, aad), nil
}

// Seal encrypts one page for (va, version) into a freshly allocated blob.
// len(plain) must be PageSize. Hot paths should prefer SealAppend with a
// reused buffer.
func (s *Sealer) Seal(va mmu.VAddr, version uint64, plain []byte) (Blob, error) {
	ct, err := s.SealAppend(nil, va, version, plain)
	if err != nil {
		return Blob{}, err
	}
	return Blob{Ciphertext: ct, Version: version, EnclaveID: s.enclaveID}, nil
}

// OpenAppend decrypts a blob that must have been sealed for exactly
// (va, expectVersion), appending the plaintext page to dst and returning the
// extended slice. When dst has PageSize spare capacity the call does not
// allocate. The returned bytes live in dst's backing array (never in
// Sealer-internal scratch), so reusing the same buffer across calls is safe
// as long as the previous result has been consumed.
//
// Any tampered, replayed or mis-bound blob fails with an error matching
// ErrIntegrity; when the blob's (untrusted, advisory) metadata reveals the
// failure mode, the error is refined to ErrTruncated, ErrStaleVersion or
// ErrWrongEnclave — all of which wrap ErrIntegrity, so the security decision
// never depends on the refinement.
func (s *Sealer) OpenAppend(dst []byte, va mmu.VAddr, expectVersion uint64, b Blob) ([]byte, error) {
	if len(b.Ciphertext) < mmu.PageSize+s.aead.Overhead() {
		return nil, ErrTruncated
	}
	nonce, aad := s.nonce(va, expectVersion), s.aad(va, expectVersion)
	var plain []byte
	var err error
	if s.kern != nil && useKernel && len(b.Ciphertext) == mmu.PageSize+tagLen {
		plain, err = s.openKernel(dst, b.Ciphertext)
	} else {
		plain, err = s.aead.Open(dst, nonce, b.Ciphertext, aad)
	}
	if err != nil {
		switch {
		case b.EnclaveID != s.enclaveID:
			return nil, ErrWrongEnclave
		case b.Version != expectVersion:
			return nil, ErrStaleVersion
		}
		return nil, ErrIntegrity
	}
	return plain, nil
}

// Open decrypts a blob into a freshly allocated page. See OpenAppend for
// the verification semantics; hot paths should prefer OpenAppend with a
// reused buffer.
func (s *Sealer) Open(va mmu.VAddr, expectVersion uint64, b Blob) ([]byte, error) {
	return s.OpenAppend(nil, va, expectVersion, b)
}

// Store is the untrusted in-regular-memory repository of sealed pages, keyed
// by (enclave, page). Being untrusted, it offers a mutation hook (Corrupt)
// that attack tests use to verify the trusted side rejects bad blobs.
//
// The store owns the memory of every slot and reuses it: a Put over a slot
// overwrites its buffer in place, and Delete returns the buffer to a free
// list that later Puts draw from, so steady-state paging allocates nothing
// here.
type Store struct {
	blobs map[storeKey]Blob
	// free holds retired slot buffers (length 0) for later Puts.
	free [][]byte
}

type storeKey struct {
	enclaveID uint64
	vpn       uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{blobs: make(map[storeKey]Blob)}
}

func key(enclaveID uint64, va mmu.VAddr) storeKey {
	return storeKey{enclaveID: enclaveID, vpn: va.VPN()}
}

// Put stores the sealed blob for a page. The ciphertext is copied into
// store-owned memory (per the PagingBackend ownership contract the caller's
// buffer is only valid for the duration of the call): over the slot's own
// buffer when the page has one, into a recycled or fresh buffer otherwise.
func (st *Store) Put(enclaveID uint64, va mmu.VAddr, b Blob) {
	k := key(enclaveID, va)
	old, ok := st.blobs[k]
	buf := old.Ciphertext
	if !ok {
		buf = st.takeBuf()
	}
	b.Ciphertext = append(buf[:0], b.Ciphertext...)
	st.blobs[k] = b
}

// takeBuf returns a recycled slot buffer, or nil when none is free.
func (st *Store) takeBuf() []byte {
	n := len(st.free)
	if n == 0 {
		return nil
	}
	buf := st.free[n-1]
	st.free[n-1] = nil
	st.free = st.free[:n-1]
	return buf
}

// Get returns the current blob for a page. The ciphertext is a view of
// store memory, valid until the next Put, Delete or Corrupt.
func (st *Store) Get(enclaveID uint64, va mmu.VAddr) (Blob, error) {
	b, ok := st.blobs[key(enclaveID, va)]
	if !ok {
		return Blob{}, ErrNotFound
	}
	return b, nil
}

// Delete removes the blob for a page (after a successful page-in),
// recycling its buffer.
func (st *Store) Delete(enclaveID uint64, va mmu.VAddr) {
	k := key(enclaveID, va)
	if b, ok := st.blobs[k]; ok {
		delete(st.blobs, k)
		if cap(b.Ciphertext) > 0 {
			st.free = append(st.free, b.Ciphertext[:0])
		}
	}
}

// Len reports how many pages are currently swapped out across all enclaves.
func (st *Store) Len() int { return len(st.blobs) }

// Corrupt flips a byte of the stored ciphertext in place — an active attack
// on the backing store. Reports whether a blob existed.
func (st *Store) Corrupt(enclaveID uint64, va mmu.VAddr) bool {
	b, ok := st.blobs[key(enclaveID, va)]
	if !ok || len(b.Ciphertext) == 0 {
		return false
	}
	b.Ciphertext[0] ^= 0xff
	return true
}

// Archive is an attacker's copy of evicted traffic, bounded to what a
// rollback needs. Freshness rests on one trusted version counter per page,
// so a single stale blob per page is all a replay can ever use: the archive
// keeps the first blob it sees for each (enclave, page) and whether a newer
// one has arrived since. Retained bytes grow with distinct pages, not with
// evictions. The zero value is an empty archive.
type Archive struct {
	pages map[storeKey]archiveEntry
}

type archiveEntry struct {
	first      Blob
	superseded bool
}

// Record notes that b was evicted for a page. The first blob per page is
// kept with its ciphertext copied (the caller's buffer is only valid for
// the call); later ones only mark it superseded.
func (a *Archive) Record(enclaveID uint64, va mmu.VAddr, b Blob) {
	k := key(enclaveID, va)
	if e, ok := a.pages[k]; ok {
		if !e.superseded {
			a.pages[k] = archiveEntry{first: e.first, superseded: true}
		}
		return
	}
	if a.pages == nil {
		a.pages = make(map[storeKey]archiveEntry)
	}
	b.Ciphertext = append([]byte(nil), b.Ciphertext...)
	a.pages[k] = archiveEntry{first: b}
}

// Oldest returns the first blob recorded for a page, once a newer one has
// been recorded — the stale blob a rollback swaps in.
func (a *Archive) Oldest(enclaveID uint64, va mmu.VAddr) (Blob, bool) {
	e := a.pages[key(enclaveID, va)]
	return e.first, e.superseded
}

// Len reports how many pages the archive holds a blob for.
func (a *Archive) Len() int { return len(a.pages) }
