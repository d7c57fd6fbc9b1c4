package mmu

import (
	"testing"
	"testing/quick"

	"autarky/internal/metrics"
	"autarky/internal/sim"
)

func newPT() (*PageTable, *sim.Clock) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	return NewPageTable(clock, &costs), clock
}

func TestVAddrHelpers(t *testing.T) {
	a := VAddr(0x12345)
	if a.VPN() != 0x12 {
		t.Errorf("VPN = %#x", a.VPN())
	}
	if a.PageBase() != 0x12000 {
		t.Errorf("PageBase = %s", a.PageBase())
	}
	if a.Offset() != 0x345 {
		t.Errorf("Offset = %#x", a.Offset())
	}
	if PageOf(0x12) != 0x12000 {
		t.Errorf("PageOf = %s", PageOf(0x12))
	}
}

func TestPagesIn(t *testing.T) {
	cases := map[uint64]uint64{0: 0, 1: 1, 4096: 1, 4097: 2, 8192: 2}
	for n, want := range cases {
		if got := PagesIn(n); got != want {
			t.Errorf("PagesIn(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPermsAllows(t *testing.T) {
	if !PermRW.Allows(AccessRead) || !PermRW.Allows(AccessWrite) || PermRW.Allows(AccessExec) {
		t.Error("PermRW semantics wrong")
	}
	if !PermRX.Allows(AccessExec) || PermRX.Allows(AccessWrite) {
		t.Error("PermRX semantics wrong")
	}
}

func TestPermsString(t *testing.T) {
	if s := PermRWX.String(); s != "rwxu" {
		t.Errorf("PermRWX = %q", s)
	}
	if s := Perms(0).String(); s != "----" {
		t.Errorf("zero perms = %q", s)
	}
}

func TestMapWalkRoundTrip(t *testing.T) {
	pt, _ := newPT()
	va := VAddr(0x4000_0000)
	pt.Map(va, 42, PermRW, false)
	pte, fault := pt.Walk(va, AccessRead)
	if fault != nil {
		t.Fatalf("walk faulted: %v", fault)
	}
	if pte.PFN != 42 || pte.EPC {
		t.Fatalf("wrong PTE: %+v", pte)
	}
}

func TestWalkNotPresent(t *testing.T) {
	pt, _ := newPT()
	_, fault := pt.Walk(0x1000, AccessRead)
	if fault == nil || !fault.NotPresent {
		t.Fatalf("expected not-present fault, got %v", fault)
	}
}

func TestWalkProtection(t *testing.T) {
	pt, _ := newPT()
	va := VAddr(0x2000)
	pt.Map(va, 7, PermRead|PermUser, false)
	_, fault := pt.Walk(va, AccessWrite)
	if fault == nil || !fault.Protection || fault.NotPresent {
		t.Fatalf("expected protection fault, got %v", fault)
	}
	if _, f := pt.Walk(va, AccessRead); f != nil {
		t.Fatalf("read should succeed: %v", f)
	}
}

func TestWalkChargesCycles(t *testing.T) {
	pt, clock := newPT()
	pt.Map(0x1000, 1, PermRW, false)
	before := clock.Cycles()
	pt.Walk(0x1000, AccessRead)
	costs := sim.DefaultCosts()
	if got := clock.Cycles() - before; got != 4*costs.PTWalkLevel {
		t.Fatalf("walk charged %d cycles, want %d", got, 4*costs.PTWalkLevel)
	}
}

func TestWalkDoesNotSetAD(t *testing.T) {
	pt, _ := newPT()
	va := VAddr(0x3000)
	pt.Map(va, 3, PermRW, false)
	pt.Walk(va, AccessWrite)
	pte, _ := pt.Get(va)
	if pte.Accessed || pte.Dirty {
		t.Fatal("Walk must not write A/D; that is the CPU layer's decision")
	}
}

func TestSetADAndClear(t *testing.T) {
	pt, _ := newPT()
	va := VAddr(0x5000)
	pt.Map(va, 5, PermRW, false)
	pt.SetAD(va, true)
	pte, _ := pt.Get(va)
	if !pte.Accessed || !pte.Dirty {
		t.Fatal("SetAD failed")
	}
	pt.ClearAccessed(va)
	pt.ClearDirty(va)
	pte, _ = pt.Get(va)
	if pte.Accessed || pte.Dirty {
		t.Fatal("clear failed")
	}
}

func TestUnmapReturnsOldEntry(t *testing.T) {
	pt, _ := newPT()
	va := VAddr(0x7000)
	pt.Map(va, 9, PermRX, true)
	old := pt.Unmap(va)
	if !old.Present || old.PFN != 9 || !old.EPC {
		t.Fatalf("old = %+v", old)
	}
	if _, fault := pt.Walk(va, AccessRead); fault == nil {
		t.Fatal("walk after unmap must fault")
	}
	if empty := pt.Unmap(0x9999000); empty.Present {
		t.Fatal("unmap of unmapped returned present")
	}
}

func TestSetPresentTogglesMappedCount(t *testing.T) {
	pt, _ := newPT()
	va := VAddr(0x8000)
	pt.Map(va, 1, PermRW, false)
	if pt.Mapped() != 1 {
		t.Fatalf("Mapped = %d", pt.Mapped())
	}
	pt.SetPresent(va, false)
	if pt.Mapped() != 0 {
		t.Fatalf("Mapped after clear = %d", pt.Mapped())
	}
	pt.SetPresent(va, true)
	if pt.Mapped() != 1 {
		t.Fatalf("Mapped after restore = %d", pt.Mapped())
	}
	if pt.SetPresent(0xdead000, true) {
		t.Fatal("SetPresent on missing entry returned true")
	}
}

func TestMapADInitialState(t *testing.T) {
	pt, _ := newPT()
	va := VAddr(0xa000)
	pt.MapAD(va, 4, PermRW, true, true, true)
	pte, _ := pt.Get(va)
	if !pte.Accessed || !pte.Dirty || !pte.EPC {
		t.Fatalf("MapAD state: %+v", pte)
	}
}

func TestSetPermsRequiresPresent(t *testing.T) {
	pt, _ := newPT()
	if pt.SetPerms(0x1000, PermRead) {
		t.Fatal("SetPerms on missing entry returned true")
	}
	pt.Map(0x1000, 1, PermRWX, false)
	if !pt.SetPerms(0x1000, PermRead|PermUser) {
		t.Fatal("SetPerms failed")
	}
	if _, fault := pt.Walk(0x1000, AccessWrite); fault == nil {
		t.Fatal("write after perm reduction should fault")
	}
}

func TestPageTablePropertyRoundTrip(t *testing.T) {
	pt, _ := newPT()
	if err := quick.Check(func(vpnRaw uint32, pfnRaw uint16) bool {
		vpn := uint64(vpnRaw)
		va := PageOf(vpn)
		pfn := PFN(pfnRaw) + 1
		pt.Map(va, pfn, PermRW, false)
		pte, fault := pt.Walk(va, AccessRead)
		return fault == nil && pte.PFN == pfn
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- TLB ---

func newTLB() (*TLB, *sim.Clock) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	return NewTLB(16, 2, clock, &costs), clock
}

// fill installs a translation for va the way the CPU does after a miss:
// a lookup chooses the way, Fill takes it.
func fill(tlb *TLB, va VAddr, pte PTE, writable bool) {
	_, way := tlb.Lookup(va, AccessRead)
	tlb.Fill(va, way, pte.PFN, pte.Perms, writable)
}

// hits reports whether a lookup of va for at hits.
func hits(tlb *TLB, va VAddr, at AccessType) bool {
	e, _ := tlb.Lookup(va, at)
	return e != nil
}

func TestTLBMissThenHit(t *testing.T) {
	tlb, clock := newTLB()
	va := VAddr(0x1000)
	e, way := tlb.Lookup(va, AccessRead)
	if e != nil {
		t.Fatal("empty TLB hit")
	}
	tlb.Fill(va, way, 8, PermRW, true)
	e, _ = tlb.Lookup(va, AccessRead)
	if e == nil || e.PFN() != 8 {
		t.Fatalf("hit failed: %v", e)
	}
	m := metrics.Of(clock)
	if hits, misses := m.Count(metrics.CntTLBHits), m.Count(metrics.CntTLBMisses); hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestTLBWriteRequiresWritableEntry(t *testing.T) {
	tlb, _ := newTLB()
	va := VAddr(0x2000)
	// Filled from a read with D clear: not writable.
	fill(tlb, va, PTE{Present: true, Perms: PermRW, PFN: 1}, false)
	if hits(tlb, va, AccessWrite) {
		t.Fatal("store must miss on a non-writable entry (D-bit discipline)")
	}
	if !hits(tlb, va, AccessRead) {
		t.Fatal("read should hit")
	}
}

func TestTLBPermissionCheck(t *testing.T) {
	tlb, _ := newTLB()
	va := VAddr(0x3000)
	fill(tlb, va, PTE{Present: true, Perms: PermRead | PermUser, PFN: 1}, true)
	if hits(tlb, va, AccessExec) {
		t.Fatal("exec hit on non-exec entry")
	}
}

func TestTLBFlushAll(t *testing.T) {
	tlb, clock := newTLB()
	fill(tlb, 0x1000, PTE{Present: true, Perms: PermRW, PFN: 1}, true)
	before := clock.Cycles()
	tlb.FlushAll(1)
	if clock.Cycles() == before {
		t.Fatal("flush must charge cycles")
	}
	if hits(tlb, 0x1000, AccessRead) {
		t.Fatal("entry survived flush")
	}
}

func TestTLBInvalidateSinglePage(t *testing.T) {
	tlb, _ := newTLB()
	fill(tlb, 0x1000, PTE{Present: true, Perms: PermRW, PFN: 1}, true)
	fill(tlb, 0x2000, PTE{Present: true, Perms: PermRW, PFN: 2}, true)
	tlb.Invalidate(0x1000)
	if hits(tlb, 0x1000, AccessRead) {
		t.Fatal("invalidated entry hit")
	}
	if !hits(tlb, 0x2000, AccessRead) {
		t.Fatal("unrelated entry lost")
	}
}

func TestTLBShootdownChargesIPI(t *testing.T) {
	tlb, clock := newTLB()
	costs := sim.DefaultCosts()
	fill(tlb, 0x1000, PTE{Present: true, Perms: PermRW, PFN: 1}, true)
	before := clock.Cycles()
	tlb.Shootdown(0x1000)
	if got := clock.Cycles() - before; got < costs.TLBShootdown {
		t.Fatalf("shootdown charged %d", got)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	tlb := NewTLB(1, 2, clock, &costs) // one set, two ways
	fillVPN := func(vpn uint64) {
		fill(tlb, PageOf(vpn), PTE{Present: true, Perms: PermRW, PFN: PFN(vpn)}, true)
	}
	fillVPN(1)
	fillVPN(2)
	tlb.Lookup(PageOf(1), AccessRead) // make 1 MRU
	fillVPN(3)                        // must evict 2
	if !hits(tlb, PageOf(1), AccessRead) {
		t.Fatal("MRU entry evicted")
	}
	if hits(tlb, PageOf(2), AccessRead) {
		t.Fatal("LRU entry survived")
	}
}

func TestTLBGeometryValidation(t *testing.T) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	for _, bad := range [][2]int{{0, 2}, {3, 2}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTLB(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			NewTLB(bad[0], bad[1], clock, &costs)
		}()
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x1234, Type: AccessWrite, NotPresent: true}
	if f.Error() == "" {
		t.Fatal("empty fault message")
	}
}

func TestAccessTypeString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" || AccessExec.String() != "exec" {
		t.Fatal("AccessType names wrong")
	}
}
