package hostos

import (
	"fmt"

	"autarky/internal/mmu"
)

// ProcAt returns the process whose ELRANGE starts at base, or nil. Restore
// uses it to find the dead incarnation occupying the address range it is
// about to reuse.
func (k *Kernel) ProcAt(base mmu.VAddr) *Proc {
	for _, s := range k.procs {
		if s.p != nil && s.p.E.Base == base {
			return s.p
		}
	}
	return nil
}

// DestroyEnclave tears down a dead enclave so its address range can host a
// restored incarnation: every resident EPC frame is EREMOVEd (legal
// unconditionally for a dead enclave) and unmapped, outstanding sealed
// blobs are dropped from the backing stack (best-effort — an unavailable
// backend must not block a restore), and the process leaves the kernel's
// process table. Page teardown follows ascending address order so the
// cycle charge sequence is deterministic.
func (k *Kernel) DestroyEnclave(p *Proc) error {
	if _, in := k.CPU.InEnclave(); in {
		return fmt.Errorf("hostos: cannot destroy an enclave while one is running")
	}
	// A second destroy of the same handle finds the registration gone and
	// fails with ErrNotLoaded — it must never silently succeed, or callers
	// would keep using a handle the kernel already forgot.
	p, err := k.proc(p)
	if err != nil {
		return err
	}
	dead, _, _ := p.E.Dead()
	if !dead {
		return fmt.Errorf("%w: enclave %d", ErrEnclaveLive, p.E.ID)
	}
	return k.teardown(p)
}

// teardown EREMOVEs and unmaps every resident frame, drops the outstanding
// sealed blobs and removes the process from the kernel's process table. The
// enclave must be dead, or not yet initialized.
func (k *Kernel) teardown(p *Proc) error {
	for i := range p.pages {
		ps := &p.pages[i]
		if !ps.present {
			continue
		}
		if ps.resident {
			if err := k.CPU.EREMOVE(p.E, ps.va, ps.pfn); err != nil {
				return fmt.Errorf("hostos: destroying %s: %w", ps.va, err)
			}
			k.PT.Unmap(ps.va)
			k.CPU.TLB.Invalidate(ps.va)
			ps.resident = false
			ps.pfn = mmu.NoPFN
			p.resident--
		}
		if ps.everEvicted {
			// The blob may or may not still be in the stack (fetched pages
			// were dropped); either way the store's answer is irrelevant now.
			_ = k.backend.Drop(p.E.ID, ps.va)
		}
	}
	k.procs[p.E.ID].p = nil
	return nil
}
