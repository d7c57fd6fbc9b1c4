package mmu

import (
	"fmt"

	"autarky/internal/sim"
)

// PTE is a page-table entry. The OS (including a malicious one) manipulates
// PTEs freely; hardware reads them during walks and writes back
// accessed/dirty bits.
type PTE struct {
	Present  bool
	Perms    Perms
	PFN      PFN
	Accessed bool
	Dirty    bool
	// EPC marks the frame as an enclave-page-cache frame. Real hardware
	// derives this from the physical address range (PRM); the model tags it
	// explicitly so the SGX checks can be applied on the same path.
	EPC bool
}

// Fault is an x86-style page fault: the faulting address plus an error code.
// The SGX layer may mask Addr before the fault is delivered to the OS.
type Fault struct {
	Addr VAddr
	Type AccessType
	// NotPresent is true when the walk found no valid translation
	// (P bit clear in the error code).
	NotPresent bool
	// Protection is true for a permission violation on a present mapping.
	Protection bool
	// SGX is true when the fault was raised by an SGX-specific check
	// (EPCM mismatch, non-EPC frame mapped in ELRANGE, or Autarky's
	// A/D-bits rule). The error code's PF_SGX bit.
	SGX bool
}

// Error implements the error interface so a Fault can flow through error
// returns inside the simulator.
func (f *Fault) Error() string {
	return fmt.Sprintf("page fault: %s %s (notPresent=%v protection=%v sgx=%v)",
		f.Type, f.Addr, f.NotPresent, f.Protection, f.SGX)
}

// pt node fan-out: 9 bits per level, 4 levels, like x86-64.
const (
	ptLevels  = 4
	ptFanout  = 512
	ptIdxBits = 9
	ptIdxMask = ptFanout - 1
)

type ptNode struct {
	entries [ptFanout]*ptNode // intermediate levels
	leaves  [ptFanout]*PTE    // last level only
}

// ptNodeCacheSlots is the number of slots in a page table's cache of
// last-level nodes (a power of two). One slot holds the node of one 2 MiB
// region.
const ptNodeCacheSlots = 64

// ptNodeCacheSlot holds the last-level node of one 2 MiB region, keyed by
// the region's number (vpn >> ptIdxBits). A nil node marks an empty slot.
type ptNodeCacheSlot struct {
	region uint64
	node   *ptNode
}

// nodeCacheIndex is region's slot in the node cache. Enclaves sit in 1 GiB
// ELRANGE slots, 512 regions apart, so the low bits of the region number
// alone would put every enclave's first region in one slot; folding in the
// region's 1 GiB number keeps them apart.
func nodeCacheIndex(region uint64) int {
	return int((region ^ region>>ptIdxBits) & (ptNodeCacheSlots - 1))
}

// PageTable is a 4-level radix page table. One PageTable backs one process
// address space; the enclave shares its host process's table (paper §2.1:
// "their address space is managed by the OS via the same page table").
//
// Methods that mutate entries are the OS's (or the attacker's) interface.
// Walk is the hardware's interface.
type PageTable struct {
	root  ptNode
	clock *sim.Clock
	costs *sim.Costs

	// nodes caches the last-level nodes of recent successful walks, so a
	// walk through a cached region reads one node instead of four. Nodes
	// are never freed, so a cached node is the one a walk from the root
	// would reach, and it sees every PTE write made since it was cached.
	nodes [ptNodeCacheSlots]ptNodeCacheSlot

	// mapped counts present leaf PTEs, for accounting and tests.
	mapped int
	// walked is the PTE the last successful Walk returned, and walkFault
	// the fault the last faulting Walk returned.
	walked    PTE
	walkFault Fault
}

// NewPageTable returns an empty page table charging walk costs to clock.
func NewPageTable(clock *sim.Clock, costs *sim.Costs) *PageTable {
	return &PageTable{clock: clock, costs: costs}
}

func idxAt(vpn uint64, level int) int {
	// level 0 is the root; level 3 indexes leaves.
	shift := uint((ptLevels - 1 - level) * ptIdxBits)
	return int((vpn >> shift) & ptIdxMask)
}

// lookup returns the leaf PTE for vpn, or nil. When create is true the
// intermediate nodes and the leaf are allocated.
func (pt *PageTable) lookup(vpn uint64, create bool) *PTE {
	n := &pt.root
	for level := 0; level < ptLevels-1; level++ {
		i := idxAt(vpn, level)
		next := n.entries[i]
		if next == nil {
			if !create {
				return nil
			}
			next = &ptNode{}
			n.entries[i] = next
		}
		n = next
	}
	i := idxAt(vpn, ptLevels-1)
	leaf := n.leaves[i]
	if leaf == nil && create {
		leaf = &PTE{}
		n.leaves[i] = leaf
	}
	return leaf
}

// Map installs a present translation vpn→pfn with the given permissions.
// A/D bits of a fresh mapping are clear, as after a Linux page-in.
func (pt *PageTable) Map(va VAddr, pfn PFN, perms Perms, epc bool) {
	pte := pt.lookup(va.VPN(), true)
	if !pte.Present {
		pt.mapped++
	}
	*pte = PTE{Present: true, Perms: perms, PFN: pfn, EPC: epc}
}

// MapAD is Map but with explicit initial accessed/dirty state. Autarky's OS
// interface maps enclave pages with A and D pre-set so that the
// A/D-must-be-set rule admits them (paper §5.1.4).
func (pt *PageTable) MapAD(va VAddr, pfn PFN, perms Perms, epc, accessed, dirty bool) {
	pt.Map(va, pfn, perms, epc)
	pte := pt.lookup(va.VPN(), false)
	pte.Accessed = accessed
	pte.Dirty = dirty
}

// Unmap clears the present bit and returns the previous entry (zero PTE if
// there was none). The frame itself is not freed; that is the caller's job.
func (pt *PageTable) Unmap(va VAddr) PTE {
	pte := pt.lookup(va.VPN(), false)
	if pte == nil {
		return PTE{}
	}
	old := *pte
	if pte.Present {
		pt.mapped--
	}
	*pte = PTE{}
	return old
}

// Get returns a copy of the PTE for va and whether a leaf entry exists.
func (pt *PageTable) Get(va VAddr) (PTE, bool) {
	pte := pt.lookup(va.VPN(), false)
	if pte == nil {
		return PTE{}, false
	}
	return *pte, true
}

// SetPresent toggles the present bit of an existing entry. This is the
// primitive of the original controlled-channel attack (Xu et al.): clear,
// wait for the fault, restore.
func (pt *PageTable) SetPresent(va VAddr, present bool) bool {
	pte := pt.lookup(va.VPN(), false)
	if pte == nil {
		return false
	}
	if pte.Present != present {
		if present {
			pt.mapped++
		} else {
			pt.mapped--
		}
	}
	pte.Present = present
	return true
}

// SetPerms replaces the permission bits of an existing present entry
// (the permission-reduction attack variant, and EMODPR's page-table side).
func (pt *PageTable) SetPerms(va VAddr, perms Perms) bool {
	pte := pt.lookup(va.VPN(), false)
	if pte == nil || !pte.Present {
		return false
	}
	pte.Perms = perms
	return true
}

// ClearAccessed clears the A bit (the silent attack of Wang et al. /
// Van Bulck et al.). Reports whether an entry existed.
func (pt *PageTable) ClearAccessed(va VAddr) bool {
	pte := pt.lookup(va.VPN(), false)
	if pte == nil {
		return false
	}
	pte.Accessed = false
	return true
}

// ClearDirty clears the D bit.
func (pt *PageTable) ClearDirty(va VAddr) bool {
	pte := pt.lookup(va.VPN(), false)
	if pte == nil {
		return false
	}
	pte.Dirty = false
	return true
}

// SetAD sets the accessed and (optionally) dirty bits, as the hardware
// walker does on a successful translation.
func (pt *PageTable) SetAD(va VAddr, dirty bool) {
	pte := pt.lookup(va.VPN(), false)
	if pte == nil {
		return
	}
	pte.Accessed = true
	if dirty {
		pte.Dirty = true
	}
}

// Mapped reports the number of present leaf entries.
func (pt *PageTable) Mapped() int { return pt.mapped }

// Walk performs the hardware walk for va with the given access type,
// charging walk cycles. It returns a snapshot of the leaf PTE, taken before
// any SGX-specific check and before A/D writeback, or a fault for a
// non-present translation or insufficient permissions. It does NOT update
// A/D bits; the CPU layer decides that after SGX checks (paper §5.1.4
// requires the checks to see the pre-update state).
//
// The snapshot and the fault live in the page table and are valid until the
// next Walk; callers that keep them copy them. A walk thus allocates
// nothing, and its caller reads the snapshot's fields where they lie: a
// struct returned by value is spilled with narrow stores and then copied
// with wide loads, which stall on them.
//
// A walk through a region whose last-level node is cached goes straight to
// the leaf, but charges the four levels one at a time, as the walk from the
// root does, so a cycle limit trips at the same cycle. Only a successful
// walk fills the cache.
func (pt *PageTable) Walk(va VAddr, t AccessType) (*PTE, *Fault) {
	vpn := va.VPN()
	region := vpn >> ptIdxBits
	slot := &pt.nodes[nodeCacheIndex(region)]
	n := slot.node
	cached := n != nil && slot.region == region
	// Walk latency is pipeline work: it inherits the ambient category.
	if cached {
		for level := 0; level < ptLevels-1; level++ {
			pt.clock.ChargeAmbient(pt.costs.PTWalkLevel)
		}
	} else {
		n = &pt.root
		for level := 0; level < ptLevels-1; level++ {
			pt.clock.ChargeAmbient(pt.costs.PTWalkLevel)
			next := n.entries[idxAt(vpn, level)]
			if next == nil {
				return nil, pt.fault(Fault{Addr: va, Type: t, NotPresent: true})
			}
			n = next
		}
	}
	pt.clock.ChargeAmbient(pt.costs.PTWalkLevel)
	leaf := n.leaves[idxAt(vpn, ptLevels-1)]
	if leaf == nil || !leaf.Present {
		return nil, pt.fault(Fault{Addr: va, Type: t, NotPresent: true})
	}
	if !leaf.Perms.Allows(t) {
		return nil, pt.fault(Fault{Addr: va, Type: t, Protection: true})
	}
	if !cached {
		*slot = ptNodeCacheSlot{region: region, node: n}
	}
	pt.walked = *leaf
	return &pt.walked, nil
}

// fault parks f in the page table's fault slot and returns it.
func (pt *PageTable) fault(f Fault) *Fault {
	pt.walkFault = f
	return &pt.walkFault
}
