package fleet

import (
	"errors"
	"testing"

	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// attachOne attaches a one-event schedule without a supervisor: the event
// fires at its cycle, and nobody heals what it breaks.
func attachOne(t *testing.T, f *Fleet, ev Event) *Schedule {
	t.Helper()
	s := &Schedule{Events: []Event{ev}}
	if err := f.AttachChaos(s, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// runActing drives the fleet's rounds itself, calling act before each one:
// the way a test recovers, fails over or evacuates mid-run. An idle fleet
// stops only after act has had its chance at the idle state, that is once
// a round that followed an idle one is idle too.
func runActing(f *Fleet, act func() error) error {
	if err := f.validate(); err != nil {
		return err
	}
	for idle := false; ; {
		if err := act(); err != nil {
			return err
		}
		more, err := f.step()
		if err != nil {
			return err
		}
		if !more && idle {
			return f.finish()
		}
		idle = !more
	}
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
	// Overload the victim: arrivals modestly outpace service, so the queues
	// are saturated — but the schedule is not yet spent — when the crash
	// hits, and it catches admitted-but-unserved requests in flight.
	victim := newServingTenant("victim", 24, 40, 3000, 400, 21)
	survivor := newServingTenant("survivor", 24, 40, 100, meanGap, 22)
	// Both land on m0 first-fit; pin the survivor elsewhere by admitting it
	// after the crash tests placement against the cordoned wreck.
	survivor.AdmitAfter = 1_500_000
	f.Add(victim)
	f.Add(survivor)

	sched := attachOne(t, f, Event{At: 1_000_000, Kind: KindCrash, Node: 0})

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if sched.Fired() != 1 {
		t.Fatal("crash never injected")
	}
	if n0.State() != NodeCrashed || n0.Accepting() {
		t.Fatalf("crashed node: state %v accepting %v", n0.State(), n0.Accepting())
	}
	if !errors.Is(victim.Err(), ErrCrashed) {
		t.Fatalf("victim err = %v, want ErrCrashed", victim.Err())
	}
	if survivor.Err() != nil {
		t.Fatalf("survivor err = %v", survivor.Err())
	}
	if survivor.Node() == n0 {
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

// TestFleetCrashRecover: periodic checkpoints plus a manual restore. The
// restored incarnation picks up the open-loop schedule on the destination
// machine, the recovery-point age and restore counters are charged, and the
// cross-machine account still balances.
func TestFleetCrashRecover(t *testing.T) {
	f := newTestFleet(FirstFit{})
	f.AddNode("m0", 256, sim.DefaultCosts())
	n1 := f.AddNode("m1", 256, sim.DefaultCosts())
	f.CheckpointEvery = 8

	st := newServingTenant("phoenix", 24, 40, 400, meanGap, 23)
	f.Add(st)

	sched := attachOne(t, f, Event{At: 3_000_000, Kind: KindCrash, Node: 0})
	recovered := false
	var polls0 uint64
	act := func() error {
		if f.Round() == 1 && f.restore(st, n1) == nil {
			t.Fatal("recovered a tenant that is not down")
		}
		if sched.Fired() == 0 || recovered || !st.down {
			return nil
		}
		if st.cp == nil {
			t.Fatal("crash before any periodic checkpoint")
		}
		if f.restore(st, f.Nodes()[0]) == nil {
			t.Fatal("recovered onto the crashed machine")
		}
		recovered = true
		polls0 = st.Server().Stats().IdlePolls
		return f.restore(st, n1)
	}

	if err := runActing(f, act); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !recovered {
		t.Fatal("recovery never ran")
	}
	if st.Err() != nil {
		t.Fatalf("recovered tenant err = %v", st.Err())
	}
	if st.Node() != n1 {
		t.Fatalf("recovered onto %s, want m1", st.Node().Name)
	}
	stats := f.Stats()
	if stats.Restarts != 1 || stats.RecoveryPointAge == 0 {
		t.Fatalf("stats: restarts %d rp-age %d", stats.Restarts, stats.RecoveryPointAge)
	}
	// The restored incarnation kept serving: everything offered, and the
	// crash-lost requests are exactly the books' difference.
	s := st.Server().Stats()
	if s.Offered != 400 {
		t.Fatalf("offered %d of 400 across the crash", s.Offered)
	}
	if st.Server().PendingSchedule() != 0 {
		t.Fatalf("%d arrivals never fired after recovery", st.Server().PendingSchedule())
	}
	if s.Served+s.Errors+s.Timeouts+s.Dropped+s.Backpressure != s.Offered {
		t.Fatalf("books do not balance: %+v", s)
	}
	checkIdleFollows(t, st, n1, polls0)
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
	st := newServingTenant("sleeper", 24, 40, 200, meanGap, 24)
	f.Add(st)

	const freeze = 1_500_000
	sched := attachOne(t, f, Event{At: 1_000_000, Kind: KindFreeze, Node: 0, Dur: freeze})

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if sched.Fired() != 1 {
		t.Fatal("freeze never injected")
	}
	if n0.State() != NodeHealthy {
		t.Fatalf("node never thawed: %v", n0.State())
	}
	if st.Err() != nil {
		t.Fatalf("tenant err = %v", st.Err())
	}
	stats := f.Stats()
	if stats.Failures != 1 || stats.FailureDowntime < freeze {
		t.Fatalf("stats: failures %d downtime %d, want downtime >= %d",
			stats.Failures, stats.FailureDowntime, freeze)
	}
	if st.Server().Stats().Served == 0 || st.Server().PendingSchedule() != 0 {
		t.Fatalf("frozen tenant never finished: served %d pending %d",
			st.Server().Stats().Served, st.Server().PendingSchedule())
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
	st := newServingTenant("islander", 24, 40, 300, meanGap, 25)
	f.Add(st)

	attachOne(t, f, Event{At: 1_000_000, Kind: KindPartition, Node: 0, Dur: 2_000_000})

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if n0.State() != NodeHealthy {
		t.Fatalf("partitioned node state %v, want healthy", n0.State())
	}
	if st.Err() != nil {
		t.Fatalf("tenant err = %v", st.Err())
	}
	s := st.Server().Stats()
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

	st := newServingTenant("heavy", 24, 40, 400, meanGap, 26)
	f.Add(st)

	sched := attachOne(t, f, Event{At: 3_000_000, Kind: KindCrash, Node: 0})
	failedOver := false
	act := func() error {
		if sched.Fired() == 0 || failedOver {
			return nil
		}
		failedOver = true
		return f.failOver(f.Nodes()[0])
	}

	if err := runActing(f, act); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !failedOver {
		t.Fatal("failover never ran")
	}
	if !errors.Is(st.Err(), ErrShed) {
		t.Fatalf("tenant err = %v, want ErrShed", st.Err())
	}
	if !errors.Is(st.Err(), libos.ErrQuotaExceeded) {
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

	st := newServingTenant("refugee", 24, 40, 300, meanGap, 27)
	f.Add(st)

	evacuated := false
	act := func() error {
		if evacuated || f.Clock().Cycles() < 2_000_000 {
			return nil
		}
		evacuated = true
		moved, err := f.evacuate(n0)
		if err != nil {
			return err
		}
		if moved != 1 {
			t.Fatalf("evacuated %d tenants, want 1", moved)
		}
		return nil
	}

	if err := runActing(f, act); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !evacuated {
		t.Fatal("evacuation never ran")
	}
	if n0.State() != NodeFenced || n0.Accepting() {
		t.Fatalf("evacuated node: state %v accepting %v", n0.State(), n0.Accepting())
	}
	if st.Node() != n1 || st.Err() != nil {
		t.Fatalf("tenant on %s err %v, want m1/nil", st.Node().Name, st.Err())
	}
	if f.Stats().Failovers != 1 || f.Stats().Migrations != 1 {
		t.Fatalf("stats: failovers %d migrations %d", f.Stats().Failovers, f.Stats().Migrations)
	}
	if st.Server().PendingSchedule() != 0 {
		t.Fatalf("%d arrivals never fired after evacuation", st.Server().PendingSchedule())
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
	f.injectCrash(n1)
	f.heartbeat()
	if n0.lastBeat == 0 {
		t.Fatal("healthy node never beat")
	}
	if n1.lastBeat != 0 {
		t.Fatal("crashed node beat")
	}
	if clock.Buckets()[sim.CatPolicy] == 0 {
		t.Fatal("heartbeat charged nothing to the policy bucket")
	}
}

// TestFleetIdleWakesForEvent: a fleet whose only tenant finished long
// before its scheduled failure still reaches it — the idle clock jumps to
// the next event instead of ending the run.
func TestFleetIdleWakesForEvent(t *testing.T) {
	f := newTestFleet(FirstFit{})
	f.AddNode("m0", 256, sim.DefaultCosts())
	st := newServingTenant("brief", 24, 40, 20, meanGap, 28)
	f.Add(st)
	const at = 50_000_000
	sched := attachOne(t, f, Event{At: at, Kind: KindFreeze, Node: 0, Dur: 1_000_000})

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if sched.Fired() != 1 || f.Clock().Cycles() < at {
		t.Fatalf("fired %d by cycle %d, want the freeze at %d", sched.Fired(), f.Clock().Cycles(), at)
	}
	if st.Err() != nil {
		t.Fatalf("tenant err = %v", st.Err())
	}
}

// TestFleetIdleWakesForSupervisor: when the only tenant's machine crashes,
// nothing is runnable, yet the fleet stays up until the supervisor's
// watchdog declares the machine dead and restores the tenant elsewhere.
func TestFleetIdleWakesForSupervisor(t *testing.T) {
	f := newTestFleet(FirstFit{})
	f.AddNode("m0", 256, sim.DefaultCosts())
	n1 := f.AddNode("m1", 256, sim.DefaultCosts())
	f.CheckpointEvery = 8
	st := newServingTenant("lone", 24, 40, 400, meanGap, 29)
	f.Add(st)
	sched := &Schedule{Events: []Event{{At: 3_000_000, Kind: KindCrash, Node: 0}}}
	if err := f.AttachChaos(sched, &Supervisor{Deadline: 300_000}); err != nil {
		t.Fatal(err)
	}

	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if st.Err() != nil {
		t.Fatalf("tenant err = %v", st.Err())
	}
	if got := f.Stats().Restarts; got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	if st.Node() != n1 || st.Server().PendingSchedule() != 0 {
		t.Fatalf("tenant on %s with %d arrivals unfired, want m1 and 0",
			st.Node().Name, st.Server().PendingSchedule())
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}
