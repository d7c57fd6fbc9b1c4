package sgx

import (
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// This file models the two SGX paging mechanisms the paper's prototype
// supports (§6): the SGXv1 privileged EWB/ELDU instructions, and the SGXv2
// dynamic memory-management instructions used for in-enclave software
// paging.

// requirePrivileged rejects calls made while executing in enclave mode
// (these are ring-0 instructions; on the single-hart model, enclave mode
// and kernel mode cannot coexist).
func (c *CPU) requirePrivileged(op string) error {
	if c.cur != nil {
		return fmt.Errorf("%w: %s in enclave mode", ErrOutsideEnclave, op)
	}
	return nil
}

// epcmFor validates that pfn is an EPC frame owned by e at linear address
// va and returns its entry.
func (c *CPU) epcmFor(e *Enclave, va mmu.VAddr, pfn mmu.PFN) (*EPCMEntry, error) {
	if !c.EPC.Contains(pfn) {
		return nil, fmt.Errorf("%w: PFN %d not in EPC", ErrEPCMConflict, pfn)
	}
	ent := &c.EPC.Entry(pfn).EPCM
	if !ent.Valid || ent.EnclaveID != e.ID || ent.LinAddr != va.PageBase() {
		return nil, fmt.Errorf("%w: EPCM mismatch for %s", ErrEPCMConflict, va)
	}
	return ent, nil
}

// EBLOCK marks an enclave page as blocked, the first step of eviction.
// Subsequent enclave accesses to the page fault.
func (c *CPU) EBLOCK(e *Enclave, va mmu.VAddr, pfn mmu.PFN) error {
	if err := c.requirePrivileged("EBLOCK"); err != nil {
		return err
	}
	ent, err := c.epcmFor(e, va, pfn)
	if err != nil {
		return err
	}
	if ent.Blocked {
		return fmt.Errorf("%w: EBLOCK on blocked page %s", ErrEPCMConflict, va)
	}
	ent.Blocked = true
	ent.blockEpoch = e.trackEpoch
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.EBLOCK)
	c.m.Inc(metrics.CntEBLOCK)
	return nil
}

// ETRACK opens a new tracking epoch for the enclave. The OS must complete a
// TLB shootdown round (CompleteShootdown) before EWB will accept pages
// blocked in earlier epochs.
func (c *CPU) ETRACK(e *Enclave) error {
	if err := c.requirePrivileged("ETRACK"); err != nil {
		return err
	}
	e.trackEpoch++
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.ETRACK)
	c.m.Inc(metrics.CntETRACK)
	return nil
}

// CompleteShootdown records that the OS performed the IPI round flushing
// stale enclave TLB entries for the current epoch. The cost of the actual
// shootdown is charged by the OS through mmu.TLB.Shootdown.
func (c *CPU) CompleteShootdown(e *Enclave) {
	e.shootdownEpoch = e.trackEpoch
}

// EWB evicts a blocked, tracked enclave page: the content is sealed with a
// fresh version (replay protection, modelling the VA-page chain) and handed
// to the untrusted paging backend, and the frame is freed. The OS must
// separately unmap the PTE; hardware does not touch page tables.
func (c *CPU) EWB(e *Enclave, va mmu.VAddr, pfn mmu.PFN, store pagestore.PagingBackend) error {
	if err := c.requirePrivileged("EWB"); err != nil {
		return err
	}
	ent, err := c.epcmFor(e, va, pfn)
	if err != nil {
		return err
	}
	if ent.Type != PTReg {
		return fmt.Errorf("%w: EWB on %s page", ErrEPCMConflict, ent.Type)
	}
	if !ent.Blocked {
		return fmt.Errorf("%w: EWB on unblocked page %s", ErrEPCMConflict, va)
	}
	if e.trackEpoch <= ent.blockEpoch || e.shootdownEpoch < e.trackEpoch {
		return ErrNotTracked
	}
	vpn := va.VPN()
	version := e.versions[vpn] + 1
	// Seal into the enclave's reusable buffer: the backend copies whatever
	// it retains (ownership contract), so the buffer is free again as soon
	// as EvictBatch returns.
	ct, err := e.sealer.SealAppend(e.sealBuf[:0], va.PageBase(), version, c.EPC.Data(pfn))
	if err != nil {
		return err
	}
	e.sealBuf = ct[:0]
	e.versions[vpn] = version
	if e.swappedPerms == nil {
		e.swappedPerms = make(map[uint64]mmu.Perms)
	}
	e.swappedPerms[vpn] = ent.Perms
	e.ewbBatch[0] = pagestore.PageBlob{
		VA:   va.PageBase(),
		Blob: pagestore.Blob{Ciphertext: ct, Version: version, EnclaveID: e.ID},
	}
	if err := store.EvictBatch(e.ID, e.ewbBatch[:]); err != nil {
		return err
	}
	c.EPC.Free(pfn)
	// EWB's cost is dominated by the page re-encryption; attribute it to
	// crypto, like the paper's Fig.5 "SGX paging incl. crypto" stack.
	c.Clock.ChargeAs(sim.CatCrypto, c.Costs.EWB)
	c.m.Inc(metrics.CntEWB)
	return nil
}

// ELDU loads a previously evicted page back into a fresh EPC frame,
// verifying integrity and freshness against the trusted version counter.
// It returns the new frame for the OS to map. A tampered or replayed blob
// fails with pagestore.ErrIntegrity and allocates nothing.
func (c *CPU) ELDU(e *Enclave, va mmu.VAddr, store pagestore.PagingBackend) (mmu.PFN, error) {
	if err := c.requirePrivileged("ELDU"); err != nil {
		return mmu.NoPFN, err
	}
	va = va.PageBase()
	vpn := va.VPN()
	perms, swapped := e.swappedPerms[vpn]
	if !swapped {
		return mmu.NoPFN, fmt.Errorf("%w: ELDU of page %s that was never evicted", ErrEPCMConflict, va)
	}
	e.elduVA[0] = va
	if err := store.FetchBatch(e.ID, e.elduVA[:], e.elduBlob[:]); err != nil {
		return mmu.NoPFN, err
	}
	// Decrypt into the enclave's reusable buffer; the plaintext is copied
	// into the fresh frame below, before anything else touches the buffer.
	// The fetched blob is the backend's, so let go of it at once: a buffer
	// the store drops must not stay reachable from the enclave.
	plain, err := e.sealer.OpenAppend(e.openBuf[:0], va, e.versions[vpn], e.elduBlob[0])
	e.elduBlob[0] = pagestore.Blob{}
	if err != nil {
		return mmu.NoPFN, err
	}
	e.openBuf = plain[:0]
	pfn, err := c.EPC.Alloc()
	if err != nil {
		return mmu.NoPFN, err
	}
	f := c.EPC.Entry(pfn)
	copy(f.Data, plain)
	f.EPCM = EPCMEntry{
		Valid:     true,
		Type:      PTReg,
		EnclaveID: e.ID,
		LinAddr:   va,
		Perms:     perms,
	}
	delete(e.swappedPerms, vpn)
	if err := store.Drop(e.ID, va); err != nil {
		return mmu.NoPFN, err
	}
	// Like EWB: decrypt-and-verify dominates, so ELDU is crypto work.
	c.Clock.ChargeAs(sim.CatCrypto, c.Costs.ELDU)
	c.m.Inc(metrics.CntELDU)
	return pfn, nil
}

// EAUG adds a zeroed pending page to a running SGXv2 enclave. The enclave
// must EACCEPT (or EACCEPTCOPY) it before use.
func (c *CPU) EAUG(e *Enclave, va mmu.VAddr) (mmu.PFN, error) {
	if err := c.requirePrivileged("EAUG"); err != nil {
		return mmu.NoPFN, err
	}
	if !e.Attrs.Has(AttrSGX2) {
		return mmu.NoPFN, fmt.Errorf("%w: EAUG on SGXv1 enclave", ErrEPCMConflict)
	}
	if !e.Contains(va) || va.Offset() != 0 {
		return mmu.NoPFN, fmt.Errorf("%w: EAUG at %s", ErrBadAddress, va)
	}
	pfn, err := c.EPC.Alloc()
	if err != nil {
		return mmu.NoPFN, err
	}
	f := c.EPC.Entry(pfn)
	f.EPCM = EPCMEntry{
		Valid:     true,
		Type:      PTReg,
		EnclaveID: e.ID,
		LinAddr:   va,
		Perms:     mmu.PermRW,
		Pending:   true,
	}
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.EAUG)
	c.m.Inc(metrics.CntEAUG)
	return pfn, nil
}

// EACCEPT is the enclave-mode confirmation of an OS-initiated EPCM change:
// it clears the Pending (EAUG), PR (EMODPR) or Modified (EMODT) flag.
func (c *CPU) EACCEPT(va mmu.VAddr, pfn mmu.PFN) error {
	e, ok := c.InEnclave()
	if !ok {
		return fmt.Errorf("%w: EACCEPT outside enclave mode", ErrOutsideEnclave)
	}
	ent, err := c.epcmFor(e, va, pfn)
	if err != nil {
		return err
	}
	switch {
	case ent.Pending:
		ent.Pending = false
	case ent.PR:
		ent.PR = false
	case ent.Modified:
		ent.Modified = false
	default:
		return fmt.Errorf("%w: EACCEPT with nothing to accept at %s", ErrEPCMConflict, va)
	}
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.EACCEPT)
	c.m.Inc(metrics.CntEACCEPT)
	return nil
}

// EACCEPTCOPY accepts a pending EAUG page while initializing it from a
// buffer, setting the requested final permissions. It is the fetch path of
// SGXv2 software self-paging (paper §6: "we overlap EAUG with decryption
// using a temporary buffer").
func (c *CPU) EACCEPTCOPY(va mmu.VAddr, pfn mmu.PFN, src []byte, perms mmu.Perms) error {
	e, ok := c.InEnclave()
	if !ok {
		return fmt.Errorf("%w: EACCEPTCOPY outside enclave mode", ErrOutsideEnclave)
	}
	ent, err := c.epcmFor(e, va, pfn)
	if err != nil {
		return err
	}
	if !ent.Pending {
		return fmt.Errorf("%w: EACCEPTCOPY on non-pending page %s", ErrEPCMConflict, va)
	}
	if len(src) > mmu.PageSize {
		return fmt.Errorf("sgx: EACCEPTCOPY source %d bytes exceeds page", len(src))
	}
	f := c.EPC.Entry(pfn)
	// Initialize from src first, then zero only the tail the source does
	// not cover (a full-page src — the common fetch path — zeroes nothing).
	n := copy(f.Data, src)
	tail := f.Data[n:]
	for i := range tail {
		tail[i] = 0
	}
	ent.Pending = false
	ent.Perms = perms
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.EACCEPTCOPY)
	c.m.Inc(metrics.CntEACCEPTCOPY)
	return nil
}

// EMODPR restricts an enclave page's EPCM permissions; the enclave must
// EACCEPT. It is the first step of the SGXv2 software eviction path
// (paper §6: "we first set it to read-only with EMODPR and EACCEPT").
func (c *CPU) EMODPR(e *Enclave, va mmu.VAddr, pfn mmu.PFN, perms mmu.Perms) error {
	if err := c.requirePrivileged("EMODPR"); err != nil {
		return err
	}
	ent, errE := c.epcmFor(e, va, pfn)
	if errE != nil {
		return errE
	}
	if perms&^ent.Perms != 0 {
		return fmt.Errorf("%w: EMODPR cannot extend permissions", ErrEPCMConflict)
	}
	ent.Perms = perms
	ent.PR = true
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.EMODPR)
	c.m.Inc(metrics.CntEMODPR)
	return nil
}

// EMODT changes an enclave page's type (to TRIM for deallocation); the
// enclave must EACCEPT, after which the OS may EREMOVE.
func (c *CPU) EMODT(e *Enclave, va mmu.VAddr, pfn mmu.PFN, typ PageType) error {
	if err := c.requirePrivileged("EMODT"); err != nil {
		return err
	}
	ent, errE := c.epcmFor(e, va, pfn)
	if errE != nil {
		return errE
	}
	if typ != PTTrim {
		return fmt.Errorf("%w: EMODT to %s unsupported", ErrEPCMConflict, typ)
	}
	ent.Type = typ
	ent.Modified = true
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.EMODT)
	c.m.Inc(metrics.CntEMODT)
	return nil
}

// EREMOVE frees an EPC frame. For a live enclave the page must have been
// trimmed (EMODT to TRIM, EACCEPTed); pages of an uninitialized or dead
// enclave can be removed unconditionally.
func (c *CPU) EREMOVE(e *Enclave, va mmu.VAddr, pfn mmu.PFN) error {
	if err := c.requirePrivileged("EREMOVE"); err != nil {
		return err
	}
	ent, errE := c.epcmFor(e, va, pfn)
	if errE != nil {
		return errE
	}
	dead, _, _ := e.Dead()
	if e.initialized && !dead {
		if ent.Type != PTTrim || ent.Modified {
			return fmt.Errorf("%w: EREMOVE of un-trimmed page %s", ErrEPCMConflict, va)
		}
	}
	c.EPC.Free(pfn)
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.EREMOVE)
	c.m.Inc(metrics.CntEREMOVE)
	return nil
}

// Sealer exposes the enclave's sealing identity to its trusted runtime for
// the SGXv2 software paging path (modelling EGETKEY). Untrusted code must
// not call it; the model relies on package discipline, as the runtime and
// OS live in separate packages.
func (e *Enclave) Sealer() *pagestore.Sealer { return e.sealer }
