package fleet

import (
	"errors"
	"testing"

	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// crashAt injects one crash (or freeze, or partition) of node idx at the
// given cycle through the OnRound hook — the deterministic trigger chaos
// tests use without pulling in the chaos package's scheduler.
type crashAt struct {
	f     *Fleet
	at    uint64
	fired bool
	do    func(n *Node)
	node  int
}

func (c *crashAt) hook(round int) error {
	if !c.fired && c.f.Clock().Cycles() >= c.at {
		c.fired = true
		c.do(c.f.Nodes()[c.node])
	}
	return nil
}

// TestFleetCrashUnsupervised: a machine crash with nobody watching. The
// tenant's task dies where it stands, its admitted-but-unserved requests are
// booked as lost, downtime accrues to the end of the run, the tenant ends
// with ErrCrashed — and Run does not fail, because a chaos outcome is an
// account entry, not a fleet error.
func TestFleetCrashUnsupervised(t *testing.T) {
	f := newTestFleet(FirstFit{})
	n0 := f.AddNode("m0", 256, sim.DefaultCosts())
	f.AddNode("m1", 256, sim.DefaultCosts())
	victim := newServingTenant("victim", 24, 40, 3000, 0, 21)
	// Overload the victim: arrivals modestly outpace service, so the queues
	// are saturated — but the schedule is not yet spent — when the crash
	// hits, and it catches admitted-but-unserved requests in flight.
	victim.meanGap = 400
	victim.Crash = func(*Tenant) uint64 { return victim.srv.Crash() }
	survivor := newServingTenant("survivor", 24, 40, 100, 0, 22)
	// Both land on m0 first-fit; pin the survivor elsewhere by admitting it
	// after the crash tests placement against the cordoned wreck.
	survivor.AdmitAfter = 1_500_000
	f.Add(victim.Tenant)
	f.Add(survivor.Tenant)

	inj := &crashAt{f: f, at: 1_000_000, node: 0, do: func(n *Node) { f.InjectCrash(n) }}
	f.OnRound = inj.hook

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !inj.fired {
		t.Fatal("crash never injected")
	}
	if n0.State() != NodeCrashed || n0.Accepting() {
		t.Fatalf("crashed node: state %v accepting %v", n0.State(), n0.Accepting())
	}
	if !errors.Is(victim.Tenant.Err(), ErrCrashed) {
		t.Fatalf("victim err = %v, want ErrCrashed", victim.Tenant.Err())
	}
	if survivor.Tenant.Err() != nil {
		t.Fatalf("survivor err = %v", survivor.Tenant.Err())
	}
	if survivor.Tenant.Node() == n0 {
		t.Fatal("survivor placed onto the crashed machine")
	}
	st := f.Stats()
	if st.Failures != 1 || st.FailureDowntime == 0 {
		t.Fatalf("stats: failures %d downtime %d", st.Failures, st.FailureDowntime)
	}
	if st.LostRequests == 0 {
		t.Fatal("crash lost no requests despite in-flight traffic")
	}
	m := metrics.Of(f.Clock())
	if m.Count(metrics.CntChaosFailures) != 1 {
		t.Fatalf("chaos.failures = %d", m.Count(metrics.CntChaosFailures))
	}
	if m.Count(metrics.CntChaosDowntime) != st.FailureDowntime {
		t.Fatal("downtime counter disagrees with fleet stats")
	}
	if m.Count(metrics.CntChaosLostRequests) != st.LostRequests {
		t.Fatal("lost-requests counter disagrees with fleet stats")
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetCrashRecover: periodic checkpoints plus a manual Recover. The
// restored incarnation picks up the open-loop schedule on the destination
// machine, the recovery-point age and restore counters are charged, and the
// cross-machine account still balances.
func TestFleetCrashRecover(t *testing.T) {
	f := newTestFleet(FirstFit{})
	f.AddNode("m0", 256, sim.DefaultCosts())
	n1 := f.AddNode("m1", 256, sim.DefaultCosts())
	f.CheckpointEvery = 8

	st := newServingTenant("phoenix", 24, 40, 400, 0, 23)
	st.Crash = func(*Tenant) uint64 { return st.srv.Crash() }
	f.Add(st.Tenant)

	inj := &crashAt{f: f, at: 3_000_000, node: 0, do: func(n *Node) { f.InjectCrash(n) }}
	recovered := false
	f.OnRound = func(round int) error {
		if round == 1 && f.Recover(st.Tenant, n1) == nil {
			t.Fatal("recovered a tenant that is not down")
		}
		if err := inj.hook(round); err != nil {
			return err
		}
		if inj.fired && !recovered && st.Tenant.Down() {
			if _, ok := st.Tenant.LastCheckpoint(); !ok {
				t.Fatal("crash before any periodic checkpoint")
			}
			if f.Recover(st.Tenant, f.Nodes()[0]) == nil {
				t.Fatal("recovered onto the crashed machine")
			}
			recovered = true
			return f.Recover(st.Tenant, n1)
		}
		return nil
	}
	// Keep the idle fleet alive until the recovery had its chance.
	f.NextWake = func() (uint64, bool) {
		if inj.fired && !recovered {
			return f.Clock().Cycles() + 1, true
		}
		if !inj.fired {
			return inj.at, true
		}
		return 0, false
	}

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !recovered {
		t.Fatal("recovery never ran")
	}
	if st.Tenant.Err() != nil {
		t.Fatalf("recovered tenant err = %v", st.Tenant.Err())
	}
	if st.Tenant.Node() != n1 {
		t.Fatalf("recovered onto %s, want m1", st.Tenant.Node().Name)
	}
	stats := f.Stats()
	if stats.Restarts != 1 || stats.RecoveryPointAge == 0 {
		t.Fatalf("stats: restarts %d rp-age %d", stats.Restarts, stats.RecoveryPointAge)
	}
	// The restored incarnation kept serving: everything offered, and the
	// crash-lost requests are exactly the books' difference.
	s := st.srv.Stats()
	if s.Offered != 400 {
		t.Fatalf("offered %d of 400 across the crash", s.Offered)
	}
	if st.srv.PendingSchedule() != 0 {
		t.Fatalf("%d arrivals never fired after recovery", st.srv.PendingSchedule())
	}
	if s.Served+s.Errors+s.Timeouts+s.Dropped+s.Backpressure != s.Offered {
		t.Fatalf("books do not balance: %+v", s)
	}
	m := metrics.Of(f.Clock())
	if m.Count(metrics.CntChaosRestarts) != 1 || m.Count(metrics.CntRestores) != 1 ||
		m.Count(metrics.CntRestoreCycles) == 0 {
		t.Fatalf("restart counters: chaos %d libos %d (%d cycles)", m.Count(metrics.CntChaosRestarts),
			m.Count(metrics.CntRestores), m.Count(metrics.CntRestoreCycles))
	}
	if m.Count(metrics.CntChaosRPAge) != stats.RecoveryPointAge {
		t.Fatal("rp-age counter disagrees with fleet stats")
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetFreezeThaws: a stop-the-world freeze parks the machine's tasks
// where they stand; the fleet idles the clock to the thaw deadline, the
// machine resumes by itself, the stopped time lands in the failure-downtime
// account, and the tenant finishes normally.
func TestFleetFreezeThaws(t *testing.T) {
	f := newTestFleet(FirstFit{})
	n0 := f.AddNode("m0", 256, sim.DefaultCosts())
	st := newServingTenant("sleeper", 24, 40, 200, 0, 24)
	f.Add(st.Tenant)

	const freeze = 1_500_000
	inj := &crashAt{f: f, at: 1_000_000, node: 0, do: func(n *Node) { f.InjectFreeze(n, freeze) }}
	f.OnRound = inj.hook

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !inj.fired {
		t.Fatal("freeze never injected")
	}
	if n0.State() != NodeHealthy {
		t.Fatalf("node never thawed: %v", n0.State())
	}
	if st.Tenant.Err() != nil {
		t.Fatalf("tenant err = %v", st.Tenant.Err())
	}
	stats := f.Stats()
	if stats.Failures != 1 || stats.FailureDowntime < freeze {
		t.Fatalf("stats: failures %d downtime %d, want downtime >= %d",
			stats.Failures, stats.FailureDowntime, freeze)
	}
	if st.srv.Stats().Served == 0 || st.srv.PendingSchedule() != 0 {
		t.Fatalf("frozen tenant never finished: served %d pending %d",
			st.srv.Stats().Served, st.srv.PendingSchedule())
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetPartitionLosesTraffic: a partition severs the service channel
// while the machine keeps running — requests vanish, connections reset, but
// the tenant survives and the machine stays healthy.
func TestFleetPartitionLosesTraffic(t *testing.T) {
	f := newTestFleet(FirstFit{})
	n0 := f.AddNode("m0", 256, sim.DefaultCosts())
	st := newServingTenant("islander", 24, 40, 300, 0, 25)
	st.Partition = func(_ *Tenant, until uint64) { st.srv.Partition(until) }
	f.Add(st.Tenant)

	inj := &crashAt{f: f, at: 1_000_000, node: 0, do: func(n *Node) {
		f.InjectPartition(n, f.Clock().Cycles()+2_000_000)
	}}
	f.OnRound = inj.hook

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if n0.State() != NodeHealthy {
		t.Fatalf("partitioned node state %v, want healthy", n0.State())
	}
	if st.Tenant.Err() != nil {
		t.Fatalf("tenant err = %v", st.Tenant.Err())
	}
	s := st.srv.Stats()
	if s.Dropped == 0 {
		t.Fatalf("partition lost nothing: dropped %d", s.Dropped)
	}
	if f.Stats().Failures != 1 {
		t.Fatalf("failures = %d", f.Stats().Failures)
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetFailOverSheds: a dead machine's tenant whose checkpoint nothing
// can hold is shed with ErrShed — which is ErrQuotaExceeded-family, the
// same resource-exhaustion class a refused enclave allocation surfaces.
func TestFleetFailOverSheds(t *testing.T) {
	f := newTestFleet(FirstFit{})
	f.AddNode("m0", 256, sim.DefaultCosts())
	f.AddNode("tiny", 16, sim.DefaultCosts())
	f.CheckpointEvery = 8

	st := newServingTenant("heavy", 24, 40, 400, 0, 26)
	st.Crash = func(*Tenant) uint64 { return st.srv.Crash() }
	f.Add(st.Tenant)

	inj := &crashAt{f: f, at: 3_000_000, node: 0, do: func(n *Node) { f.InjectCrash(n) }}
	failedOver := false
	f.OnRound = func(round int) error {
		if err := inj.hook(round); err != nil {
			return err
		}
		if inj.fired && !failedOver {
			failedOver = true
			return f.FailOver(f.Nodes()[0])
		}
		return nil
	}

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !failedOver {
		t.Fatal("failover never ran")
	}
	if !errors.Is(st.Tenant.Err(), ErrShed) {
		t.Fatalf("tenant err = %v, want ErrShed", st.Tenant.Err())
	}
	if !errors.Is(st.Tenant.Err(), libos.ErrQuotaExceeded) {
		t.Fatal("ErrShed is not ErrQuotaExceeded-family")
	}
	if f.Stats().Shed != 1 {
		t.Fatalf("shed = %d, want 1", f.Stats().Shed)
	}
	if metrics.Of(f.Clock()).Count(metrics.CntChaosShed) != 1 {
		t.Fatal("shed counter disagrees")
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetEvacuateFences: evacuating a live machine migrates its tenants
// off through the ordinary Quiesce/Adopt path and fences it — alive, but
// never stepped or placed on again.
func TestFleetEvacuateFences(t *testing.T) {
	f := newTestFleet(FirstFit{})
	n0 := f.AddNode("m0", 256, sim.DefaultCosts())
	n1 := f.AddNode("m1", 256, sim.DefaultCosts())

	st := newServingTenant("refugee", 24, 40, 300, 0, 27)
	f.Add(st.Tenant)

	evacuated := false
	f.OnRound = func(round int) error {
		if !evacuated && f.Clock().Cycles() >= 2_000_000 {
			evacuated = true
			moved, err := f.Evacuate(n0)
			if err != nil {
				return err
			}
			if moved != 1 {
				t.Fatalf("evacuated %d tenants, want 1", moved)
			}
		}
		return nil
	}

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !evacuated {
		t.Fatal("evacuation never ran")
	}
	if n0.State() != NodeFenced || n0.Accepting() {
		t.Fatalf("evacuated node: state %v accepting %v", n0.State(), n0.Accepting())
	}
	if st.Tenant.Node() != n1 || st.Tenant.Err() != nil {
		t.Fatalf("tenant on %s err %v, want m1/nil", st.Tenant.Node().Name, st.Tenant.Err())
	}
	if f.Stats().Failovers != 1 || f.Stats().Migrations != 1 {
		t.Fatalf("stats: failovers %d migrations %d", f.Stats().Failovers, f.Stats().Migrations)
	}
	if st.srv.PendingSchedule() != 0 {
		t.Fatalf("%d arrivals never fired after evacuation", st.srv.PendingSchedule())
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetHeartbeat: beats stamp healthy machines only, and their cost
// lands in the policy bucket.
func TestFleetHeartbeat(t *testing.T) {
	clock := sim.NewClock()
	f := New(clock, nil, 0)
	n0 := f.AddNode("m0", 64, sim.DefaultCosts())
	n1 := f.AddNode("m1", 64, sim.DefaultCosts())
	clock.ChargeAs(sim.CatCompute, 1000)
	f.InjectCrash(n1)
	f.Heartbeat()
	if n0.LastBeat() == 0 {
		t.Fatal("healthy node never beat")
	}
	if n1.LastBeat() != 0 {
		t.Fatal("crashed node beat")
	}
	if clock.Buckets()[sim.CatPolicy] == 0 {
		t.Fatal("heartbeat charged nothing to the policy bucket")
	}
}
