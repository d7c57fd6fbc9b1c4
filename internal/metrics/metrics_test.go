package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"autarky/internal/sim"
)

func TestOfAttachesOnce(t *testing.T) {
	clock := sim.NewClock()
	m1 := Of(clock)
	m2 := Of(clock)
	if m1 != m2 {
		t.Fatal("Of returned two registries for one clock")
	}
	m1.Inc(CntEnters)
	m1.Add(CntTLBHits, 41)
	m1.Inc(CntTLBHits)
	if m2.Count(CntEnters) != 1 || m2.Count(CntTLBHits) != 42 {
		t.Fatalf("counts = %d, %d", m2.Count(CntEnters), m2.Count(CntTLBHits))
	}
}

func TestAttributionInvariantByConstruction(t *testing.T) {
	clock := sim.NewClock()
	m := Of(clock)

	clock.ChargeAmbient(100) // ambient compute
	clock.ChargeAs(sim.CatCrypto, 7)
	prev := clock.SetCategory(sim.CatFault)
	clock.ChargeAmbient(30)
	clock.ChargeAmbient(5) // inherits the fault scope
	clock.SetCategory(prev)
	clock.ChargeAmbient(8)

	s := m.Snapshot()
	if s.Cycles != 150 {
		t.Fatalf("cycles = %d", s.Cycles)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
	want := sim.Buckets{sim.CatCompute: 108, sim.CatCrypto: 7, sim.CatFault: 35}
	if s.Attribution != want {
		t.Fatalf("attribution = %v, want %v", s.Attribution, want)
	}
	if got := s.Share(sim.CatFault); got != 35.0/150.0 {
		t.Fatalf("Share(fault) = %v", got)
	}

	// A snapshot whose buckets were tampered with must fail Check.
	s.Attribution[sim.CatCompute]++
	if s.Check() == nil {
		t.Fatal("Check accepted drifted attribution")
	}
}

func TestChargeAsRestoresAmbientCategory(t *testing.T) {
	clock := sim.NewClock()
	clock.SetCategory(sim.CatPolicy)
	clock.ChargeAs(sim.CatPaging, 10)
	if clock.Category() != sim.CatPolicy {
		t.Fatalf("ambient category clobbered: %v", clock.Category())
	}
}

func TestSnapshotAddIsElementwise(t *testing.T) {
	a := Snapshot{Cycles: 10, Attribution: sim.Buckets{sim.CatCompute: 6, sim.CatPaging: 4}}
	a.Counters[CntEWB] = 3
	b := Snapshot{Cycles: 5, Attribution: sim.Buckets{sim.CatCompute: 5}}
	b.Counters[CntEWB] = 1
	b.Counters[CntELDU] = 2

	sum := a.Add(b)
	if sum.Cycles != 15 || sum.Attribution[sim.CatCompute] != 11 || sum.Attribution[sim.CatPaging] != 4 {
		t.Fatalf("sum = %+v", sum)
	}
	if sum.Counter(CntEWB) != 4 || sum.Counter(CntELDU) != 2 {
		t.Fatalf("counters = %d, %d", sum.Counter(CntEWB), sum.Counter(CntELDU))
	}
	if err := sum.Check(); err != nil {
		t.Fatalf("merged snapshot breaks invariant: %v", err)
	}
	// Merging is commutative, so pool-collection order cannot matter.
	if sum != b.Add(a) {
		t.Fatal("Add is not commutative")
	}
}

func TestSnapshotJSONDeterministicAndRoundTrips(t *testing.T) {
	clock := sim.NewClock()
	m := Of(clock)
	clock.ChargeAs(sim.CatPaging, 1000)
	clock.ChargeAs(sim.CatCrypto, 500)
	clock.ChargeAmbient(2500)
	m.Add(CntEWB, 12)
	m.Add(CntTLBMisses, 7)
	m.Inc(CntEnters)

	s := m.Snapshot()
	j1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(s)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("marshal not deterministic:\n%s\n%s", j1, j2)
	}
	// Attribution lists every category in declaration order; counters only
	// the non-zero ones, in declaration order.
	want := `{"cycles":4000,"attribution":{"compute":2500,"paging":1000,"crypto":500,"fault":0,"policy":0},` +
		`"counters":{"cpu.eenter":1,"sgx.ewb":12,"tlb.misses":7}}`
	if string(j1) != want {
		t.Fatalf("wire form:\n got %s\nwant %s", j1, want)
	}

	var back Snapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip changed snapshot:\n got %+v\nwant %+v", back, s)
	}
}

func TestCounterNamesStableAndComplete(t *testing.T) {
	seen := make(map[string]Counter, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		name := c.Name()
		if name == "" {
			t.Fatalf("counter %d has no wire name", c)
		}
		if dup, ok := seen[name]; ok {
			t.Fatalf("counters %d and %d share the name %q", dup, c, name)
		}
		seen[name] = c
	}
}

func TestSnapshotNamedReadsByWireName(t *testing.T) {
	var s Snapshot
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c] = uint64(c) + 1
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v, ok := s.Named(c.Name()); !ok || v != s.Counter(c) {
			t.Fatalf("Named(%q) = %d, %v; want %d", c.Name(), v, ok, s.Counter(c))
		}
	}
	if v, ok := s.Named("restore.restores"); !ok || v != s.Counter(CntRestores) {
		t.Fatalf("Named(restore.restores) = %d, %v", v, ok)
	}
	for _, name := range []string{"", "restore", "CntRestores", "counter(3)"} {
		if v, ok := s.Named(name); ok || v != 0 {
			t.Errorf("Named(%q) = %d, %v; want no counter", name, v, ok)
		}
	}
}

// TestScopesAddIntoTheMachineTotals: the machine registry's Count and
// Snapshot are its own counts plus every scope's, a scope reads only its
// own, and a scope opened from a scope belongs to the registry.
func TestScopesAddIntoTheMachineTotals(t *testing.T) {
	clock := sim.NewClock()
	m := Of(clock)
	a, b := m.Scope(), m.Scope()
	nested := a.Scope()
	m.Add(CntEnters, 5)
	a.Add(CntSelfFaults, 3)
	a.Inc(CntEnters)
	b.Add(CntSelfFaults, 4)
	nested.Add(CntSelfFaults, 10)
	clock.ChargeAs(sim.CatPaging, 70)

	if got := m.Count(CntSelfFaults); got != 17 {
		t.Fatalf("machine self faults = %d, want 3+4+10", got)
	}
	if got := m.Count(CntEnters); got != 6 {
		t.Fatalf("machine enters = %d, want 5+1", got)
	}
	if a.Count(CntSelfFaults) != 3 || b.Count(CntSelfFaults) != 4 || nested.Count(CntSelfFaults) != 10 {
		t.Fatalf("scope counts = %d, %d, %d; want each scope's own",
			a.Count(CntSelfFaults), b.Count(CntSelfFaults), nested.Count(CntSelfFaults))
	}

	snap := m.Snapshot()
	if snap.Cycles != 70 || snap.Counter(CntSelfFaults) != 17 || snap.Counter(CntEnters) != 6 {
		t.Fatalf("machine snapshot = %d cycles, %d self faults, %d enters",
			snap.Cycles, snap.Counter(CntSelfFaults), snap.Counter(CntEnters))
	}
	// Opening a scope from a scope registers it with the root, never with
	// its parent: a's view excludes nested's counts.
	if got := a.Snapshot().Counter(CntSelfFaults); got != 3 {
		t.Fatalf("a's snapshot counts %d self faults, want 3", got)
	}
}

// TestScopeSnapshotCarriesCountersOnly: a scope's snapshot has zero cycles
// and attribution, so it passes Check, and adding scopes' snapshots counts
// no cycle.
func TestScopeSnapshotCarriesCountersOnly(t *testing.T) {
	clock := sim.NewClock()
	s := Of(clock).Scope()
	clock.ChargeAs(sim.CatCrypto, 40)
	s.Add(CntServReplies, 2)
	snap := s.Snapshot()
	if snap.Cycles != 0 || snap.Attribution != (sim.Buckets{}) {
		t.Fatalf("scope snapshot carries %d cycles, attribution %v", snap.Cycles, snap.Attribution)
	}
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
	sum := snap.Add(Of(clock).Scope().Snapshot())
	if sum.Cycles != 0 || sum.Counter(CntServReplies) != 2 {
		t.Fatalf("sum of scopes = %d cycles, %d replies", sum.Cycles, sum.Counter(CntServReplies))
	}
}

// TestScopeIncZeroAlloc: counting into a scope is one array increment.
func TestScopeIncZeroAlloc(t *testing.T) {
	s := Of(sim.NewClock()).Scope()
	if allocs := testing.AllocsPerRun(100, func() {
		s.Inc(CntPagesFetched)
		s.Add(CntPagesEvicted, 4)
	}); allocs != 0 {
		t.Errorf("scope Inc/Add allocates %.1f/op, want 0", allocs)
	}
}
