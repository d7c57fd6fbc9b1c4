package mmu

import (
	"errors"
	"testing"

	"autarky/internal/sim"
)

// rootLevels is how many levels a walk from the root reads for vpn: every
// level down to the first missing node, or all four.
func rootLevels(pt *PageTable, vpn uint64) int {
	n := &pt.root
	for level := 0; level < ptLevels-1; level++ {
		next := n.entries[idxAt(vpn, level)]
		if next == nil {
			return level + 1
		}
		n = next
	}
	return ptLevels
}

// checkWalk walks va for at and checks the outcome against the root walk:
// the leaf that lookup finds, and one PTWalkLevel per level read.
func checkWalk(t *testing.T, pt *PageTable, clock *sim.Clock, va VAddr, at AccessType) {
	t.Helper()
	vpn := va.VPN()
	leaf := pt.lookup(vpn, false)
	levels := rootLevels(pt, vpn)
	before := clock.Cycles()
	pte, fault := pt.Walk(va, at)
	if got, want := clock.Cycles()-before, uint64(levels)*pt.costs.PTWalkLevel; got != want {
		t.Fatalf("walk of %s charged %d cycles, the root walk %d", va, got, want)
	}
	var want *Fault
	switch {
	case leaf == nil || !leaf.Present:
		want = &Fault{Addr: va, Type: at, NotPresent: true}
	case !leaf.Perms.Allows(at):
		want = &Fault{Addr: va, Type: at, Protection: true}
	}
	switch {
	case want != nil && (fault == nil || *fault != *want):
		t.Fatalf("%s walk of %s = %+v, %v; want fault %+v", at, va, pte, fault, want)
	case want == nil && (fault != nil || *pte != *leaf):
		t.Fatalf("%s walk of %s = %+v, %v; want %+v", at, va, pte, fault, *leaf)
	}
}

// TestWalkMatchesRootWalk interleaves every page-table mutation with walks
// and checks each walk against the root walk. The pages span more 2 MiB
// regions than the node cache has slots, in ELRANGE-like slots 1 GiB apart
// and one 512 GiB away, so cached nodes are evicted and refilled while the
// OS keeps rewriting their PTEs.
func TestWalkMatchesRootWalk(t *testing.T) {
	pt, clock := newPT()
	// Walks that fault above the leaf: through the empty table and into a
	// 512 GiB range that holds no node, at the root; into a mapped 512 GiB
	// range but an empty 1 GiB slot, one level down.
	checkWalk(t, pt, clock, 1<<30, AccessRead)
	pt.Map(1<<30, 1, PermRW, false)
	checkWalk(t, pt, clock, 513<<30, AccessRead)
	checkWalk(t, pt, clock, 2<<30, AccessRead)
	checkWalk(t, pt, clock, 1<<30+PageSize, AccessRead)

	gibs := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 513}
	const regionsPerGiB, pagesPerRegion = 10, 4
	if len(gibs)*regionsPerGiB <= ptNodeCacheSlots {
		t.Fatalf("%d regions do not overflow the %d-slot node cache", len(gibs)*regionsPerGiB, ptNodeCacheSlots)
	}
	rng := sim.NewRand(1)
	page := func() VAddr {
		g := gibs[rng.Intn(len(gibs))]
		return VAddr(g<<30 | uint64(rng.Intn(regionsPerGiB))<<21 | uint64(rng.Intn(pagesPerRegion))<<PageShift)
	}
	perms := []Perms{PermRW, PermRX, PermRWX, PermRead | PermUser, 0}
	for i := 0; i < 50_000; i++ {
		va := page()
		switch rng.Intn(10) {
		case 0:
			pt.Map(va, PFN(rng.Intn(1000)+1), perms[rng.Intn(len(perms))], rng.Intn(2) == 0)
		case 1:
			pt.MapAD(va, PFN(rng.Intn(1000)+1), perms[rng.Intn(len(perms))], rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0)
		case 2:
			pt.Unmap(va)
		case 3:
			pt.SetPresent(va, rng.Intn(2) == 0)
		case 4:
			pt.SetPerms(va, perms[rng.Intn(len(perms))])
		case 5:
			pt.ClearAccessed(va)
		case 6:
			pt.ClearDirty(va)
		case 7:
			pt.SetAD(va, rng.Intn(2) == 0)
		default:
			checkWalk(t, pt, clock, va, AccessType(rng.Intn(3)))
		}
	}
}

// TestCachedWalkTripsLimitAtSameCycle: a walk through a cached node charges
// its levels one at a time, so a cycle limit trips at the cycle where the
// walk from the root would trip it.
func TestCachedWalkTripsLimitAtSameCycle(t *testing.T) {
	pt, clock := newPT()
	va := VAddr(1 << 30)
	pt.Map(va, 1, PermRW, false)
	if _, fault := pt.Walk(va, AccessRead); fault != nil {
		t.Fatal(fault)
	}
	start, level := clock.Cycles(), pt.costs.PTWalkLevel
	clock.SetLimit(start)
	defer func() {
		var le *sim.LimitError
		if err, _ := recover().(error); !errors.As(err, &le) || le.At != start+level {
			t.Fatalf("cached walk over the limit raised %v, want a LimitError at cycle %d", err, start+level)
		}
	}()
	pt.Walk(va, AccessRead)
}
