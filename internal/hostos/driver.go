package hostos

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
)

// This file implements the Autarky driver: the system-call surface the
// trusted runtime uses for self-paging (paper §5.2.1), plus the SGXv2
// service calls of the software paging path (§6). Every call is reached
// through an exitless host call, so each entry point takes one path, call:
// it charges Costs.ExitlessCall, resolves the enclave and runs the
// privileged work on a host hart (CPU.AsHost).

// chargeCall charges one runtime->driver call: an exitless host call by
// default (paper §6), or a classic OCALL round trip (EEXIT + re-EENTER with
// their TLB flushes) when ClassicOCalls is set — the ablation quantifying
// why the prototype adopted exitless calls.
func (k *Kernel) chargeCall() {
	// Driver calls happen inside fault handling or balloon scopes; the call
	// overhead inherits whichever category the caller opened.
	k.m.Inc(metrics.CntDriverCalls)
	if k.ClassicOCalls {
		k.Clock.ChargeAmbient(k.Costs.EEXIT + k.Costs.EENTER + 2*k.Costs.TLBFlushLocal + k.Costs.SyscallRound)
		return
	}
	k.Clock.ChargeAmbient(k.Costs.ExitlessCall)
}

// call is the one path of every driver entry point: it charges the call
// before the enclave is resolved (a stale or nil enclave pays for the
// request it sent), resolves the enclave, and runs fn on a host hart.
func (k *Kernel) call(e *sgx.Enclave, fn func(p *Proc) error) error {
	k.chargeCall()
	p, err := k.procFor(e)
	if err != nil {
		return err
	}
	return k.CPU.AsHost(func() error { return fn(p) })
}

// pageCall is the path of the SGXv2 calls on one resident page
// (RestrictPerms, TrimPage, RemovePage; op names the call): call, then
// resolve the page at va, which must be resident, and run fn on it. It
// returns the page's frame once fn succeeds, mmu.NoPFN on any failure.
func (k *Kernel) pageCall(e *sgx.Enclave, va mmu.VAddr, op string, fn func(p *Proc, ps *pageState) error) (mmu.PFN, error) {
	pfn := mmu.NoPFN
	err := k.call(e, func(p *Proc) error {
		ps, err := k.page(p, va)
		if err != nil {
			return err
		}
		if !ps.resident {
			return fmt.Errorf("hostos: %s on non-resident %s", op, va)
		}
		if err := fn(p, ps); err != nil {
			return err
		}
		pfn = ps.pfn
		return nil
	})
	return pfn, err
}

func (k *Kernel) page(p *Proc, va mmu.VAddr) (*pageState, error) {
	ps := p.page(va)
	if ps == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPage, va)
	}
	return ps, nil
}

// SetOSManaged yields management of the pages to the OS: they become
// evictable at the kernel's discretion (ay_set_os_managed).
func (k *Kernel) SetOSManaged(e *sgx.Enclave, pages []mmu.VAddr) error {
	return k.call(e, func(p *Proc) error {
		for _, va := range pages {
			ps, err := k.page(p, va)
			if err != nil {
				return err
			}
			ps.enclaveManaged = false
		}
		return nil
	})
}

// SetEnclaveManaged claims the pages for the enclave: resident ones become
// pinned, and the current residence status of each is returned
// (ay_set_enclave_managed).
func (k *Kernel) SetEnclaveManaged(e *sgx.Enclave, pages []mmu.VAddr) ([]core.PageStatus, error) {
	var out []core.PageStatus
	err := k.call(e, func(p *Proc) error {
		out = make([]core.PageStatus, 0, len(pages))
		for _, va := range pages {
			ps, err := k.page(p, va)
			if err != nil {
				return err
			}
			ps.enclaveManaged = true
			out = append(out, core.PageStatus{VA: va, Resident: ps.resident})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Quota reports the enclave's resident-page limit and current residency.
func (k *Kernel) Quota(e *sgx.Enclave) (limit, resident int) {
	p, err := k.procFor(e)
	if err != nil {
		return 0, 0
	}
	return p.Quota, p.resident
}

// FetchPages securely brings the given pages into EPC from the backing
// store using the SGXv1 path (ay_fetch_pages). Batched: one exitless call
// for the whole array. Already-resident pages are skipped. If the quota
// cannot be met by evicting OS-managed pages, ErrEPCPressure is returned
// and the runtime must ay_evict_pages first.
func (k *Kernel) FetchPages(e *sgx.Enclave, pages []mmu.VAddr) error {
	return k.call(e, func(p *Proc) error {
		for _, va := range pages {
			ps, err := k.page(p, va)
			if err != nil {
				return err
			}
			if ps.resident {
				// Resident but faulting: the PTE was broken (legitimately
				// by a stale shootdown, or by an attacker) — restore it.
				k.mapPage(p, ps)
				k.CPU.TLB.Invalidate(ps.va)
				continue
			}
			if err := k.pageIn(p, ps); err != nil {
				return err
			}
			k.m.Inc(metrics.CntDriverFetches)
		}
		return nil
	})
}

// EvictPages securely writes the given resident pages out to the backing
// store using the SGXv1 path (ay_evict_pages), in one batched dance. An
// unknown page fails the call before any page is blocked.
func (k *Kernel) EvictPages(e *sgx.Enclave, pages []mmu.VAddr) error {
	return k.call(e, func(p *Proc) error {
		victims := k.evictVictims[:0]
		defer func() {
			clear(victims)
			k.evictVictims = victims[:0]
		}()
		for _, va := range pages {
			ps, err := k.page(p, va)
			if err != nil {
				return err
			}
			if ps.resident {
				victims = append(victims, ps)
			}
		}
		return k.evict(p, victims, metrics.CntDriverEvicts)
	})
}

// --- SGXv2 software-paging services -------------------------------------

// AugPages EAUGs fresh pending pages at the given addresses and maps them
// with the requested PTE permissions (A/D set). The runtime must
// EACCEPTCOPY each before use. Quota applies. The returned frames are
// kernel scratch, valid until the next AugPages call.
func (k *Kernel) AugPages(e *sgx.Enclave, pages []mmu.VAddr, perms []mmu.Perms) ([]mmu.PFN, error) {
	pfns := k.augPFNs[:0]
	err := k.call(e, func(p *Proc) error {
		for i, va := range pages {
			if err := k.ensureQuota(p, 1); err != nil {
				return err
			}
			pfn, err := k.CPU.EAUG(e, va)
			if err != nil {
				return err
			}
			pr := mmu.PermRW
			if i < len(perms) {
				pr = perms[i]
			}
			// EAUG refuses a page outside ELRANGE, so the offset is in range.
			ps := &p.pages[va.VPN()-e.Base.VPN()]
			if !ps.present {
				*ps = pageState{va: va, present: true}
			}
			ps.perms = pr
			ps.enclaveManaged = true
			p.setResident(ps, pfn)
			k.PT.MapAD(va, pfn, pr, true, true, true)
			pfns = append(pfns, pfn)
			k.m.Inc(metrics.CntDriverFetches)
		}
		return nil
	})
	k.augPFNs = pfns
	if err != nil {
		return nil, err
	}
	return pfns, nil
}

// Blobs returns the sealed-blob transport of the SGXv2 software paging
// path: the runtime's window onto the kernel's backend stack. Every blob
// that crosses it — batched or not — pays one driver call, because the
// shared-memory request ring carries one page per slot (§6); the batch
// variants exist so the backend stack underneath can still process a
// victim set as one pipelined pass.
func (k *Kernel) Blobs() pagestore.PagingBackend { return driverBackend{k} }

// driverBackend adapts the kernel's backend stack as the runtime-facing
// blob transport, charging the per-call driver overhead the old
// GetBlob/PutBlob syscalls charged.
type driverBackend struct{ k *Kernel }

var _ pagestore.PagingBackend = driverBackend{}

// Name implements pagestore.PagingBackend.
func (d driverBackend) Name() string { return "driver+" + d.k.backend.Name() }

// Evict implements pagestore.PagingBackend.
func (d driverBackend) Evict(enclaveID uint64, va mmu.VAddr, b pagestore.Blob) error {
	return pagestore.EvictOne(d, enclaveID, va, b)
}

// Fetch implements pagestore.PagingBackend.
func (d driverBackend) Fetch(enclaveID uint64, va mmu.VAddr) (pagestore.Blob, error) {
	return pagestore.FetchOne(d, enclaveID, va)
}

// Drop implements pagestore.PagingBackend.
func (d driverBackend) Drop(enclaveID uint64, va mmu.VAddr) error {
	d.k.chargeCall()
	return d.k.backend.Drop(enclaveID, va.PageBase())
}

// EvictBatch implements pagestore.PagingBackend (the SGXv2 eviction path).
func (d driverBackend) EvictBatch(enclaveID uint64, pages []pagestore.PageBlob) error {
	for range pages {
		d.k.chargeCall()
	}
	return d.k.backend.EvictBatch(enclaveID, pages)
}

// FetchBatch implements pagestore.PagingBackend (the SGXv2 fetch path: the
// runtime decrypts and EACCEPTCOPYs the result).
func (d driverBackend) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	for range pages {
		d.k.chargeCall()
	}
	return d.k.backend.FetchBatch(enclaveID, pages, out)
}

// RestrictPerms EMODPRs the page to the given permissions (with the TLB
// shootdown the architecture requires) and returns its frame so the runtime
// can EACCEPT. First step of SGXv2 software eviction.
func (k *Kernel) RestrictPerms(e *sgx.Enclave, va mmu.VAddr, perms mmu.Perms) (mmu.PFN, error) {
	return k.pageCall(e, va, "RestrictPerms", func(_ *Proc, ps *pageState) error {
		if err := k.CPU.EMODPR(e, ps.va, ps.pfn, perms); err != nil {
			return err
		}
		k.PT.SetPerms(ps.va, perms)
		k.CPU.TLB.Shootdown(ps.va)
		return nil
	})
}

// TrimPage EMODTs the page to TRIM and returns its frame so the runtime can
// EACCEPT; the runtime then calls RemovePage.
func (k *Kernel) TrimPage(e *sgx.Enclave, va mmu.VAddr) (mmu.PFN, error) {
	return k.pageCall(e, va, "TrimPage", func(_ *Proc, ps *pageState) error {
		return k.CPU.EMODT(e, ps.va, ps.pfn, sgx.PTTrim)
	})
}

// RemovePage EREMOVEs a trimmed-and-accepted page, unmaps it and frees the
// quota slot. Final step of SGXv2 software eviction.
func (k *Kernel) RemovePage(e *sgx.Enclave, va mmu.VAddr) error {
	_, err := k.pageCall(e, va, "RemovePage", func(p *Proc, ps *pageState) error {
		if err := k.CPU.EREMOVE(e, ps.va, ps.pfn); err != nil {
			return err
		}
		k.PT.Unmap(ps.va)
		k.CPU.TLB.Shootdown(ps.va)
		p.setEvicted(ps)
		k.m.Inc(metrics.CntDriverEvicts)
		return nil
	})
	return err
}
