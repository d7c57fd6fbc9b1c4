package mmu

import (
	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// TLBEntry caches one translation. EnclaveID tags entries installed while
// executing in enclave mode so they can be flushed on enclave exit and so
// A/D writeback can be suppressed for them (paper §5.1.4: "TLB entries would
// need to be flagged as holding enclave translations").
type TLBEntry struct {
	valid     bool
	vpn       uint64
	pfn       PFN
	perms     Perms
	epc       bool
	enclaveID uint64 // 0 for non-enclave translations
	writable  bool   // D bit was set at fill time; stores may reuse the entry
	lastUse   uint64 // LRU stamp
	epoch     uint64 // flush epoch at fill time; stale epoch means flushed
}

// TLB is a set-associative translation lookaside buffer. SGX flushes it on
// every enclave entry and exit (paper §2.1), which the CPU layer invokes.
type TLB struct {
	sets    [][]TLBEntry
	nsets   int
	ways    int
	useTick uint64
	clock   *sim.Clock
	costs   *sim.Costs
	m       *metrics.Metrics

	// epoch implements O(1) full flushes: entries are live only when their
	// fill epoch matches, so FlushAll just bumps the counter instead of
	// touching every way. SGX flushes on every enclave crossing, which made
	// the eager loop one of the hottest paths in the whole simulator.
	epoch uint64

	// Statistics.
	Hits    uint64
	Misses  uint64
	Fills   uint64
	Flushes uint64
}

// NewTLB returns a TLB with nsets sets of ways entries each. nsets must be a
// power of two.
func NewTLB(nsets, ways int, clock *sim.Clock, costs *sim.Costs) *TLB {
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("mmu: TLB set count must be a positive power of two")
	}
	if ways <= 0 {
		panic("mmu: TLB ways must be positive")
	}
	sets := make([][]TLBEntry, nsets)
	for i := range sets {
		sets[i] = make([]TLBEntry, ways)
	}
	return &TLB{sets: sets, nsets: nsets, ways: ways, clock: clock, costs: costs, m: metrics.Of(clock)}
}

// Sets reports the number of sets in the TLB's geometry.
func (t *TLB) Sets() int { return t.nsets }

// Ways reports the TLB's associativity.
func (t *TLB) Ways() int { return t.ways }

func (t *TLB) set(vpn uint64) []TLBEntry {
	return t.sets[vpn&uint64(t.nsets-1)]
}

// live reports whether an entry survived the most recent full flush.
func (t *TLB) live(e *TLBEntry) bool {
	return e.valid && e.epoch == t.epoch
}

// Lookup searches for a cached translation admitting the access. A store
// through an entry whose D bit was clear at fill time misses (hardware must
// re-walk to set D), matching x86 behaviour and preserving the dirty-bit
// side channel for the vanilla model.
func (t *TLB) Lookup(va VAddr, at AccessType) (*TLBEntry, bool) {
	// Lookup latency is part of the access pipeline; it inherits the
	// ambient category (compute for workload accesses).
	t.clock.ChargeAmbient(t.costs.TLBHit)
	vpn := va.VPN()
	set := t.set(vpn)
	for i := range set {
		e := &set[i]
		if t.live(e) && e.vpn == vpn && e.perms.Allows(at) {
			if at == AccessWrite && !e.writable {
				break // must re-walk to set the dirty bit
			}
			t.useTick++
			e.lastUse = t.useTick
			t.Hits++
			t.m.Inc(metrics.CntTLBHits)
			return e, true
		}
	}
	t.Misses++
	t.m.Inc(metrics.CntTLBMisses)
	return nil, false
}

// Fill installs a translation, evicting the LRU way of the set.
func (t *TLB) Fill(va VAddr, pte PTE, enclaveID uint64, writable bool) {
	vpn := va.VPN()
	set := t.set(vpn)
	victim := 0
	for i := range set {
		if !t.live(&set[i]) {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	t.useTick++
	set[victim] = TLBEntry{
		valid:     true,
		vpn:       vpn,
		pfn:       pte.PFN,
		perms:     pte.Perms,
		epc:       pte.EPC,
		enclaveID: enclaveID,
		writable:  writable,
		lastUse:   t.useTick,
		epoch:     t.epoch,
	}
	t.Fills++
	t.m.Inc(metrics.CntTLBFills)
}

// FlushAll invalidates every entry (enclave entry/exit). It is O(1): the
// flush epoch advances and every existing entry becomes stale.
func (t *TLB) FlushAll() {
	t.epoch++
	t.Flushes++
	t.m.Inc(metrics.CntTLBFlushes)
	// Flushes ride on enclave transitions; the ambient category is the
	// transition's (compute at top level, fault-handling on the fault path).
	t.clock.ChargeAmbient(t.costs.TLBFlushLocal)
}

// FlushCycles is what one FlushAll charges.
func (t *TLB) FlushCycles() uint64 { return t.costs.TLBFlushLocal }

// Invalidate drops any entry for va (INVLPG / shootdown target side).
func (t *TLB) Invalidate(va VAddr) {
	vpn := va.VPN()
	set := t.set(vpn)
	for i := range set {
		if t.live(&set[i]) && set[i].vpn == vpn {
			set[i].valid = false
		}
	}
}

// Shootdown models a remote TLB shootdown initiated by the OS: it charges
// the IPI cost and invalidates the page on this (single-hart) machine.
func (t *TLB) Shootdown(va VAddr) {
	// Shootdowns only happen as part of the eviction protocol.
	t.clock.ChargeAs(sim.CatPaging, t.costs.TLBShootdown)
	t.m.Inc(metrics.CntTLBShootdowns)
	t.Invalidate(va)
}

// PFN returns the cached frame for an entry.
func (e *TLBEntry) PFN() PFN { return e.pfn }

// EPC reports whether the cached translation targets an EPC frame.
func (e *TLBEntry) EPC() bool { return e.epc }

// EnclaveID returns the enclave tag of the entry (0 for normal memory).
func (e *TLBEntry) EnclaveID() uint64 { return e.enclaveID }
