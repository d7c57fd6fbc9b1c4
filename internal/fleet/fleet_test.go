package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/service"
	"autarky/internal/sim"
)

// meanGap is the test tenants' mean cycles between arrivals.
const meanGap = 50_000

// newServingTenant builds one open-loop serving tenant in the E14 mould: a
// self-paging enclave server whose handler touches heap pages, fed by a
// preloaded Poisson schedule.
func newServingTenant(name string, heapPages, quota, requests int, gap float64, seed uint64) *Tenant {
	t := &Tenant{
		Name: name,
		Image: libos.AppImage{
			Name:      name,
			Libraries: []libos.Library{{Name: "libserve.so", Pages: 2}},
			HeapPages: heapPages,
		},
		Config: libos.Config{
			SelfPaging:     true,
			Policy:         libos.PolicyRateLimit,
			QuotaPages:     quota,
			RateLimitBurst: 1 << 40,
		},
	}
	return t.Serve(Serving{
		Handlers: func(p *libos.Process) {
			heap := p.Heap.PageVAs()
			p.Handle("get", func(ctx *core.Context, arg uint64) (uint64, error) {
				va := heap[arg%uint64(len(heap))]
				ctx.Store(va)
				return uint64(va), nil
			})
		},
		Options: service.Options{QueueCap: 64},
		Conns:   4,
		Load:    service.OpenLoop{Arrivals: service.Poisson{MeanGap: gap}, Requests: requests, Seed: seed},
	})
}

// checkIdleFollows guards the Idle re-pointing on a tenant's later
// incarnations: since the tenant landed on node, when its server had made
// polls0 idle polls, the loop may poll at most once per slice its task got
// there. An idle hook left on the old node's scheduler busy-polls its whole
// quantum per slice instead.
func checkIdleFollows(tb testing.TB, t *Tenant, node *Node, polls0 uint64) {
	tb.Helper()
	var slices uint64
	for _, tm := range node.Sched.Accounting().Tasks {
		if tm.Name == t.Name {
			slices += tm.Slices
		}
	}
	polls := t.Server().Stats().IdlePolls - polls0
	if polls == 0 || polls > slices {
		tb.Fatalf("%s on %s: %d idle polls over %d slices, want between 1 and one per slice",
			t.Name, node.Name, polls, slices)
	}
}

// newTestFleet builds a fleet with a cycle budget so runaway bugs abort
// instead of hanging the suite.
func newTestFleet(policy Policy) *Fleet {
	clock := sim.NewClock()
	clock.SetLimit(2_000_000_000)
	return New(clock, policy, 60_000)
}

// TestFleetFirstFitServes: a static fleet serves every tenant to completion
// with zero migrations, and the cross-machine cycle account balances.
func TestFleetFirstFitServes(t *testing.T) {
	f := newTestFleet(FirstFit{})
	f.AddNode("m0", 256, sim.DefaultCosts())
	f.AddNode("m1", 256, sim.DefaultCosts())
	tenants := []*Tenant{
		newServingTenant("alpha", 24, 40, 200, meanGap, 1),
		newServingTenant("beta", 24, 40, 200, meanGap, 2),
	}
	tenants[1].AdmitAfter = 400_000
	for _, st := range tenants {
		f.Add(st)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if got := f.Stats().Migrations; got != 0 {
		t.Fatalf("first-fit migrated %d tenants", got)
	}
	for _, st := range tenants {
		stats := st.Server().Stats()
		if stats.Offered != 200 || stats.Served == 0 {
			t.Fatalf("%s: offered %d served %d, want 200 offered", st.Name, stats.Offered, stats.Served)
		}
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// movePolicy forces one migration of a named tenant at the first rebalance
// scan where it is movable — the deterministic trigger for migration tests.
type movePolicy struct {
	tenant string
	to     int
	fired  bool
}

func (m *movePolicy) Name() string                    { return "test-move" }
func (m *movePolicy) Place(f *Fleet, t *Tenant) *Node { return FirstFit{}.Place(f, t) }
func (m *movePolicy) Rebalance(f *Fleet) (moves []Move) {
	if m.fired {
		return nil
	}
	for _, t := range f.Tenants() {
		if t.Name == m.tenant && t.movable() {
			m.fired = true
			return []Move{{Tenant: t, To: f.Nodes()[m.to]}}
		}
	}
	return nil
}

// TestFleetMigrationMidServing: a serving tenant is forcibly migrated mid
// schedule; the frontend survives, the remaining arrivals are served on the
// destination, downtime is charged, and the tenant's cycles on source plus
// destination equal its fleet-account share.
func TestFleetMigrationMidServing(t *testing.T) {
	pol := &movePolicy{tenant: "alpha", to: 1}
	f := newTestFleet(pol)
	n0 := f.AddNode("m0", 256, sim.DefaultCosts())
	n1 := f.AddNode("m1", 256, sim.DefaultCosts())
	f.RebalanceEvery = 8
	var fromSeen, toSeen *Node
	var polls0 uint64
	f.OnMigrate = func(tn *Tenant, from, to *Node) {
		fromSeen, toSeen = from, to
		polls0 = tn.Server().Stats().IdlePolls
	}

	st := newServingTenant("alpha", 24, 40, 400, meanGap, 3)
	f.Add(st)
	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}

	if got := f.Stats().Migrations; got != 1 {
		t.Fatalf("migrations = %d, want 1", got)
	}
	if fromSeen != n0 || toSeen != n1 {
		t.Fatalf("migrated %v -> %v, want m0 -> m1", fromSeen, toSeen)
	}
	if st.Node() != n1 || st.Migrations() != 1 {
		t.Fatalf("tenant on %v after %d migrations", st.Node().Name, st.Migrations())
	}
	if f.Stats().DowntimeCycles == 0 {
		t.Fatal("migration charged no downtime")
	}
	m := metrics.Of(f.Clock())
	if m.Count(metrics.CntMigrationDowntime) != f.Stats().DowntimeCycles {
		t.Fatal("downtime counter disagrees with fleet stats")
	}
	stats := st.Server().Stats()
	if stats.Offered != 400 {
		t.Fatalf("offered %d of 400 after migration", stats.Offered)
	}
	if stats.Served < 350 {
		t.Fatalf("served only %d of 400 across the migration", stats.Served)
	}
	checkIdleFollows(t, st, n1, polls0)

	// The acceptance invariant: the tenant's accumulated account equals the
	// sum the two machines' schedulers attributed to it, and both machines
	// attributed a nonzero share.
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	var onSource, onDest uint64
	for _, tm := range n0.Sched.Accounting().Tasks {
		if tm.Name == "alpha" {
			onSource += tm.Cycles
		}
	}
	for _, tm := range n1.Sched.Accounting().Tasks {
		if tm.Name == "alpha" {
			onDest += tm.Cycles
		}
	}
	if onSource == 0 || onDest == 0 {
		t.Fatalf("cycle shares: source %d, destination %d — want both nonzero", onSource, onDest)
	}
	if got := st.Cycles(); got != onSource+onDest {
		t.Fatalf("tenant accounts %d cycles, source+destination schedulers say %d", got, onSource+onDest)
	}
}

// TestFleetWatermarkRebalances: first-fit packing drives one node over the
// high watermark; the rebalancer sheds its newest tenant to an idle node
// and, with the pressure relieved (hysteresis), never moves again.
func TestFleetWatermarkRebalances(t *testing.T) {
	f := newTestFleet(Watermark{High: 0.70, Low: 0.50, Cooldown: 50})
	n0 := f.AddNode("small", 100, sim.DefaultCosts())
	f.AddNode("big1", 160, sim.DefaultCosts())
	n2 := f.AddNode("big2", 160, sim.DefaultCosts())
	f.RebalanceEvery = 4

	tenants := []*Tenant{
		newServingTenant("t0", 30, 44, 250, meanGap, 10),
		newServingTenant("t1", 30, 44, 250, meanGap, 11),
		newServingTenant("t2", 30, 44, 250, meanGap, 12),
	}
	for _, st := range tenants {
		f.Add(st)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}

	if got := f.Stats().Migrations; got != 1 {
		t.Fatalf("watermark migrated %d tenants, want exactly 1 (hysteresis)", got)
	}
	if f.Stats().Rebalances != 1 {
		t.Fatalf("rebalances = %d, want 1", f.Stats().Rebalances)
	}
	// t1 was the newest packing decision on the overloaded node; it lands on
	// the emptiest node.
	if tenants[1].Migrations() != 1 || tenants[1].Node() != n2 {
		t.Fatalf("t1 on %s after %d moves, want big2 after 1",
			tenants[1].Node().Name, tenants[1].Migrations())
	}
	if tenants[0].Node() != n0 {
		t.Fatal("t0 should have stayed on the small node")
	}
	for _, st := range tenants {
		if served := st.Server().Stats().Served; served < 200 {
			t.Fatalf("%s served only %d of 250", st.Name, served)
		}
	}
	m := metrics.Of(f.Clock())
	if m.Count(metrics.CntFleetRebalances) != 1 || m.Count(metrics.CntAdopts) != 1 {
		t.Fatalf("counters: rebalances %d adopts %d, want 1/1",
			m.Count(metrics.CntFleetRebalances), m.Count(metrics.CntAdopts))
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetIdlesToAdmission: with no runnable tenant the fleet jumps the
// clock to the next arrival instead of spinning.
func TestFleetIdlesToAdmission(t *testing.T) {
	f := newTestFleet(FirstFit{})
	f.AddNode("m0", 256, sim.DefaultCosts())
	st := newServingTenant("late", 24, 40, 50, meanGap, 7)
	st.AdmitAfter = 3_000_000
	f.Add(st)
	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if got := f.Clock().Cycles(); got < 3_000_000 {
		t.Fatalf("clock %d never reached the admission cycle", got)
	}
	if st.Server().Stats().Served == 0 {
		t.Fatal("late tenant never served")
	}
}

// TestFleetMigrateMisuse: the facade-level misuse sentinels, and the
// node-health refusals that keep a tenant where it is.
func TestFleetMigrateMisuse(t *testing.T) {
	f := newTestFleet(FirstFit{})
	n0 := f.AddNode("m0", 256, sim.DefaultCosts())
	n1 := f.AddNode("m1", 256, sim.DefaultCosts())

	ghost := &Tenant{Name: "ghost"}
	if err := f.Migrate(ghost, n0); err == nil {
		t.Fatal("migrating an unadmitted tenant succeeded")
	}

	st := newServingTenant("solo", 24, 40, 30, meanGap, 9)
	f.Add(st)
	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := f.Migrate(st, st.Node()); err == nil {
		t.Fatal("migrating onto the same node succeeded")
	}
	f.injectFreeze(n1, 1_000_000)
	if err := f.Migrate(st, n1); err == nil || !strings.Contains(err.Error(), "destination m1 is frozen") || st.Node() != n0 {
		t.Fatalf("migrating onto a frozen node: %v (tenant on %s)", err, st.Node().Name)
	}
	f.injectCrash(n0)
	if err := f.Migrate(st, n1); err == nil || !strings.Contains(err.Error(), "source m0 is crashed") || st.Node() != n0 {
		t.Fatalf("migrating off a crashed node: %v (tenant on %s)", err, st.Node().Name)
	}

	// Validation: duplicate names and missing bodies are rejected.
	g := newTestFleet(nil)
	g.AddNode("m0", 64, sim.DefaultCosts())
	g.Add(&Tenant{Name: "dup", Body: func(*Tenant, *libos.Process) error { return nil }})
	g.Add(&Tenant{Name: "dup", Body: func(*Tenant, *libos.Process) error { return nil }})
	if err := g.Run(); err == nil {
		t.Fatal("duplicate tenant names accepted")
	}
	h := newTestFleet(nil)
	h.AddNode("m0", 64, sim.DefaultCosts())
	h.Add(&Tenant{Name: "nobody"})
	if err := h.Run(); err == nil {
		t.Fatal("tenant without a body accepted")
	}
}

// TestFleetNoNodeFits: an admission nothing can host surfaces as a tenant
// error, not a hang.
func TestFleetNoNodeFits(t *testing.T) {
	f := newTestFleet(FirstFit{})
	f.AddNode("tiny", 16, sim.DefaultCosts())
	st := newServingTenant("huge", 64, 128, 10, meanGap, 4)
	f.Add(st)
	err := f.Run()
	if err == nil {
		t.Fatal("oversized tenant admitted onto a tiny node")
	}
	if !errors.Is(err, st.Err()) && st.Err() == nil {
		t.Fatalf("tenant error not recorded: run err %v", err)
	}
}

// TestFleetFailedLoadFreesFrames: a tenant placed on a node whose load then
// fails (a pin-all image over its 16-page quota) surfaces as a tenant error
// and leaves the node's free EPC frames as they were.
func TestFleetFailedLoadFreesFrames(t *testing.T) {
	f := newTestFleet(FirstFit{})
	n0 := f.AddNode("m0", 256, sim.DefaultCosts())
	free := n0.FreeFrames()
	f.Add(&Tenant{
		Name:   "greedy",
		Image:  libos.AppImage{Name: "greedy", Libraries: []libos.Library{{Name: "libg.so", Pages: 2}}, HeapPages: 64},
		Config: libos.Config{SelfPaging: true, Policy: libos.PolicyPinAll, QuotaPages: 16},
		Body:   func(*Tenant, *libos.Process) error { return nil },
	})
	if err := f.Run(); !errors.Is(err, core.ErrEPCExhausted) {
		t.Fatalf("fleet run = %v, want ErrEPCExhausted", err)
	}
	if got := n0.FreeFrames(); got != free {
		t.Fatalf("failed admission left %d free frames of %d", got, free)
	}
}

// TestFleetDeterminism: two identical fleets produce byte-identical
// outcomes — same clock, same stats, same per-tenant accounts.
func TestFleetDeterminism(t *testing.T) {
	run := func() (uint64, Stats, string) {
		pol := &movePolicy{tenant: "alpha", to: 1}
		f := newTestFleet(pol)
		f.AddNode("m0", 256, sim.DefaultCosts())
		f.AddNode("m1", 256, sim.DefaultCosts())
		f.RebalanceEvery = 8
		f.Add(newServingTenant("alpha", 24, 40, 300, meanGap, 5))
		if err := f.Run(); err != nil {
			t.Fatalf("fleet run: %v", err)
		}
		a := f.Accounting()
		return f.Clock().Cycles(), f.Stats(), fmt.Sprintf("%d/%d/%d", a.TenantCycles, a.SchedCycles, a.OutsideCycles)
	}
	c1, s1, a1 := run()
	c2, s2, a2 := run()
	if c1 != c2 || s1 != s2 || a1 != a2 {
		t.Fatalf("nondeterministic fleet: (%d,%+v,%s) vs (%d,%+v,%s)", c1, s1, a1, c2, s2, a2)
	}
}
