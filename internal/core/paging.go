package core

import (
	"fmt"

	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// This file implements the SGXv2 software self-paging path (paper §6): the
// runtime performs the page encryption itself with its sealing key and uses
// the dynamic memory-management instructions, at the cost of extra enclave
// crossings per page. Both directions move their sealed blobs through the
// driver's PagingBackend transport as one batch per paging decision, so the
// backend stack underneath (plain store, blob cache, ORAM) sees the whole
// victim or fetch set in a single pipelined pass.

// fetchSGX2 brings pages in: the driver EAUGs pending frames; the runtime
// reads the sealed blobs from untrusted memory in one batch, decrypts and
// authenticates each against its own version counter, and EACCEPTCOPYs the
// plaintext. A page that was never evicted before is simply accepted
// zero-filled.
func (r *Runtime) fetchSGX2(pages []mmu.VAddr) error {
	perms := r.scratch.perms[:0]
	for _, va := range pages {
		perms = append(perms, r.page(va).perms)
	}
	r.scratch.perms = perms
	pfns, err := r.Driver.AugPages(r.enclave, pages, perms)
	if err != nil {
		return err
	}
	if len(pfns) != len(pages) {
		return fmt.Errorf("core: driver EAUGed %d of %d pages", len(pfns), len(pages))
	}

	// Previously evicted pages have sealed blobs outstanding; fetch them all
	// in one backend pass, into the runtime's reused blob views.
	need := r.scratch.need[:0]
	for _, va := range pages {
		if r.page(va).version > 0 {
			need = append(need, va)
		}
	}
	r.scratch.need = need
	var blobs []pagestore.Blob
	if len(need) > 0 {
		if cap(r.scratch.blobs) < len(need) {
			r.scratch.blobs = make([]pagestore.Blob, len(need))
		}
		blobs = r.scratch.blobs[:len(need)]
		if err := r.Driver.Blobs().FetchBatch(r.enclave.ID, need, blobs); err != nil {
			return fmt.Errorf("core: blobs for %d pages missing: %w", len(need), err)
		}
	}

	sealer := r.enclave.Sealer()
	j := 0
	for i, va := range pages {
		pi := r.page(va)
		var plain []byte
		if pi.version > 0 {
			// Decrypt into the runtime's reused buffer; EACCEPTCOPY consumes
			// it before the next iteration reuses it.
			plain, err = sealer.OpenAppend(r.scratch.plain[:0], va, pi.version, blobs[j])
			j++
			if err != nil {
				// Tampered or replayed content: integrity violation.
				return fmt.Errorf("core: page %s: %w", va, err)
			}
			r.scratch.plain = plain[:0]
			// Software decryption is crypto work, like ELDU's hardware
			// decrypt-and-verify on the SGXv1 path.
			r.Clock.ChargeAs(sim.CatCrypto, r.Costs.SWDecryptPage)
		}
		if err := r.CPU.EACCEPTCOPY(va, pfns[i], plain, pi.perms); err != nil {
			return err
		}
	}
	return nil
}

// evictSGX2 writes pages out in three pipelined phases over the whole
// victim set: freeze every page read-only (EMODPR+EACCEPT) so the contents
// are stable, seal each in software straight from its frozen frame and
// hand the blobs to the OS as one batch, then trim and remove every page
// (EMODT+EACCEPT+EREMOVE).
func (r *Runtime) evictSGX2(pages []mmu.VAddr) error {
	sealer := r.enclave.Sealer()

	if cap(r.scratch.pfns) < len(pages) {
		r.scratch.pfns = make([]mmu.PFN, len(pages))
	}
	pfns := r.scratch.pfns[:len(pages)]
	for i, va := range pages {
		pi := r.page(va)
		roPerms := pi.perms &^ mmu.PermWrite
		pfn, err := r.Driver.RestrictPerms(r.enclave, va, roPerms)
		if err != nil {
			return err
		}
		if err := r.CPU.EACCEPT(va, pfn); err != nil {
			return err
		}
		pfns[i] = pfn
	}

	// Seal the whole victim set into one reused arena: each blob is a
	// full-capacity sub-slice, so SealAppend writes in place and the batch
	// hands the backend views that stay valid for the duration of the call
	// (the backend copies if it retains them).
	sealedLen := sealer.SealedLen()
	if cap(r.scratch.arena) < len(pages)*sealedLen {
		r.scratch.arena = make([]byte, len(pages)*sealedLen)
	}
	arena := r.scratch.arena[:len(pages)*sealedLen]
	if cap(r.scratch.batch) < len(pages) {
		r.scratch.batch = make([]pagestore.PageBlob, len(pages))
	}
	batch := r.scratch.batch[:len(pages)]
	for i, va := range pages {
		pi := r.page(va)
		page, err := r.CPU.FrozenPage(va, pfns[i])
		if err != nil {
			return err
		}
		pi.version++
		// Software sealing is crypto work, like EWB's re-encryption.
		r.Clock.ChargeAs(sim.CatCrypto, r.Costs.SWEncryptPage)
		dst := arena[i*sealedLen : i*sealedLen : (i+1)*sealedLen]
		ct, err := sealer.SealAppend(dst, va, pi.version, page)
		if err != nil {
			return err
		}
		batch[i] = pagestore.PageBlob{VA: va, Blob: pagestore.Blob{
			Ciphertext: ct,
			Version:    pi.version,
			EnclaveID:  r.enclave.ID,
		}}
	}
	if err := r.Driver.Blobs().EvictBatch(r.enclave.ID, batch); err != nil {
		return err
	}

	for _, va := range pages {
		trimPFN, err := r.Driver.TrimPage(r.enclave, va)
		if err != nil {
			return err
		}
		if err := r.CPU.EACCEPT(va, trimPFN); err != nil {
			return err
		}
		if err := r.Driver.RemovePage(r.enclave, va); err != nil {
			return err
		}
	}
	return nil
}
