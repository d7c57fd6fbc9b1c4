package hostos

import (
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/sgx"
)

// This file implements the kernel's last-resort memory-pressure option from
// the Autarky contract (§5.2.1): enclave-managed pages are pinned while the
// enclave is runnable, so to reclaim them the OS must suspend the enclave,
// may then evict ALL its pages (swap the whole enclave out), and must
// restore every enclave-managed page before resuming it.

// SuspendEnclave marks the enclave non-runnable and evicts all of its
// resident pages — including enclave-managed ones, which is legal only in
// this state — returning the number of pages swapped out.
func (k *Kernel) SuspendEnclave(p *Proc) (int, error) {
	p, err := k.proc(p)
	if err != nil {
		return 0, err
	}
	if p.suspended {
		return 0, fmt.Errorf("%w: enclave %d already suspended", ErrSuspended, p.E.ID)
	}
	if _, in := k.CPU.InEnclave(); in {
		return 0, fmt.Errorf("hostos: cannot suspend a running enclave")
	}
	if dead, _, _ := p.E.Dead(); dead {
		return 0, fmt.Errorf("hostos: suspend of enclave %d: %w", p.E.ID, sgx.ErrEnclaveTerminated)
	}
	p.suspended = true
	n := 0
	for _, vpn := range append([]uint64(nil), p.order...) {
		ps := p.pageAt(vpn)
		if ps == nil || !ps.resident {
			continue
		}
		if err := k.evictOne(p, ps); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ResumeEnclave restores every enclave-managed page (honouring the
// contract) and marks the enclave runnable again. OS-managed pages are
// left to ordinary demand paging.
func (k *Kernel) ResumeEnclave(p *Proc) error {
	p, err := k.proc(p)
	if err != nil {
		return err
	}
	if !p.suspended {
		return fmt.Errorf("%w: enclave %d", ErrNotSuspended, p.E.ID)
	}
	// Ascending address order. Paging in evicts only OS-managed pages, so
	// it never changes which enclave-managed pages the walk still finds.
	for i := range p.pages {
		ps := &p.pages[i]
		if !ps.present || !ps.enclaveManaged || ps.resident {
			continue
		}
		if err := k.pageIn(p, ps); err != nil {
			return fmt.Errorf("hostos: restoring %s on resume: %w", ps.va, err)
		}
		k.m.Inc(metrics.CntOSPageIns)
	}
	p.suspended = false
	return nil
}

// Suspended reports whether the enclave is swapped out.
func (p *Proc) Suspended() bool { return p.suspended }
