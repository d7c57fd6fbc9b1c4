package mmu

import (
	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// TLBEntry caches one translation. The model needs no enclave tag on it:
// SGX flushes the whole TLB on every enclave entry and exit, so no entry
// outlives the mode it was filled in.
type TLBEntry struct {
	valid    bool
	vpn      uint64
	pfn      PFN
	perms    Perms
	writable bool   // D bit was set at fill time; stores may reuse the entry
	lastUse  uint64 // LRU stamp
	epoch    uint64 // flush epoch at fill time; stale epoch means flushed
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
//
// On a miss the entry is nil and way is the way a fill of va takes: the
// first way that is not live, or else the first least-recently-used one.
// The same scan finds both, so a miss reads the set once.
func (t *TLB) Lookup(va VAddr, at AccessType) (e *TLBEntry, way int) {
	// Lookup latency is part of the access pipeline; it inherits the
	// ambient category (compute for workload accesses).
	t.clock.ChargeAmbient(t.costs.TLBHit)
	vpn := va.VPN()
	set := t.set(vpn)
	stale, probing := false, true
	for i := range set {
		ent := &set[i]
		if !t.live(ent) {
			if !stale {
				way, stale = i, true
			}
			continue
		}
		if probing && ent.vpn == vpn && ent.perms.Allows(at) {
			if at != AccessWrite || ent.writable {
				t.useTick++
				ent.lastUse = t.useTick
				t.m.Inc(metrics.CntTLBHits)
				return ent, i
			}
			probing = false // must re-walk to set the dirty bit
		}
		if !stale && ent.lastUse < set[way].lastUse {
			way = i
		}
	}
	t.m.Inc(metrics.CntTLBMisses)
	return nil, way
}

// Fill installs the translation of va to pfn with perms in the way that
// the Lookup of va which missed chose. Nothing may change the TLB between
// the two calls.
//
// It takes the PTE's fields and writes the entry field by field, because a
// struct copied whole is copied with wide loads, which stall on the narrow
// stores that just wrote its fields.
func (t *TLB) Fill(va VAddr, way int, pfn PFN, perms Perms, writable bool) {
	vpn := va.VPN()
	t.useTick++
	e := &t.set(vpn)[way]
	e.valid = true
	e.vpn = vpn
	e.pfn = pfn
	e.perms = perms
	e.writable = writable
	e.lastUse = t.useTick
	e.epoch = t.epoch
	t.m.Inc(metrics.CntTLBFills)
}

// FlushAll invalidates every entry n times in a row (n enclave entries or
// exits with nothing cached in between), charging and counting each flush.
// It is O(1): the flush epoch advances and every existing entry becomes
// stale.
func (t *TLB) FlushAll(n uint64) {
	t.epoch += n
	t.m.Add(metrics.CntTLBFlushes, n)
	// Flushes ride on enclave transitions; the ambient category is the
	// transition's (compute at top level, fault-handling on the fault path).
	t.clock.ChargeAmbient(n * t.costs.TLBFlushLocal)
}

// FlushCycles is what one full flush charges.
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
