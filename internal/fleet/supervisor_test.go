package fleet

import (
	"errors"
	"strings"
	"testing"

	"autarky/internal/sim"
)

// --- Plan and Schedule ---

func TestPlanBuildDeterministic(t *testing.T) {
	p := Plan{
		Seed: 42, Horizon: 10_000_000,
		Crashes: 3, Freezes: 2, Partitions: 2,
		FreezeCycles: 500_000, PartitionCycles: 300_000,
		MinAlive: 2,
	}
	a, err := p.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != 7 || len(b.Events) != 7 {
		t.Fatalf("event counts: %d, %d, want 7", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs across identical builds: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	// Distinct crash victims, every event inside the window, sorted order.
	seen := map[int]bool{}
	for i, ev := range a.Events {
		if ev.Kind == KindCrash {
			if seen[ev.Node] {
				t.Fatalf("node %d crashed twice", ev.Node)
			}
			seen[ev.Node] = true
		}
		if ev.At < p.Horizon/8 || ev.At >= p.Horizon {
			t.Fatalf("event %d at %d outside [%d, %d)", i, ev.At, p.Horizon/8, p.Horizon)
		}
		if i > 0 && a.Events[i-1].At > ev.At {
			t.Fatalf("events out of order at %d", i)
		}
	}
	// A different seed moves the events.
	p2 := p
	p2.Seed = 43
	c, err := p2.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Events {
		if a.Events[i] != c.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds built identical schedules")
	}
}

func TestPlanBuildRejects(t *testing.T) {
	if _, err := (Plan{Horizon: 100}).Build(0); err == nil {
		t.Fatal("plan for zero nodes accepted")
	}
	if _, err := (Plan{}).Build(3); err == nil {
		t.Fatal("plan without a horizon accepted")
	}
	if _, err := (Plan{Horizon: 100, Crashes: 3}).Build(3); err == nil {
		t.Fatal("crashing every machine accepted with default MinAlive")
	}
	if _, err := (Plan{Horizon: 100, Crashes: 2, MinAlive: 2}).Build(3); err == nil {
		t.Fatal("crashes violating MinAlive accepted")
	}
	if _, err := (Plan{Horizon: 100, Crashes: 2}).Build(3); err != nil {
		t.Fatal("legal plan rejected")
	}
}

func TestEventKindString(t *testing.T) {
	for kind, want := range map[EventKind]string{
		KindCrash: "crash", KindFreeze: "freeze", KindPartition: "partition", EventKind(9): "kind(9)",
	} {
		if got := kind.String(); got != want {
			t.Fatalf("EventKind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

// --- AttachChaos validation ---

func TestAttachRejects(t *testing.T) {
	empty := New(sim.NewClock(), nil, 0)
	if err := empty.AttachChaos(&Schedule{}, nil); err == nil {
		t.Fatal("attach to an empty fleet accepted")
	}

	f := New(sim.NewClock(), nil, 0)
	f.AddNode("m0", 64, sim.DefaultCosts())
	bad := &Schedule{Events: []Event{{At: 1, Kind: KindCrash, Node: 3}}}
	if err := f.AttachChaos(bad, nil); err == nil || !strings.Contains(err.Error(), "targets node") {
		t.Fatalf("out-of-range event target accepted: %v", err)
	}
	if err := f.AttachChaos(nil, &Supervisor{}); err == nil {
		t.Fatal("supervisor without a deadline accepted")
	}
	sup := &Supervisor{Deadline: 1000}
	if err := f.AttachChaos(nil, sup); err != nil {
		t.Fatal(err)
	}
	if sup.HeartbeatEvery != 250 {
		t.Fatalf("default HeartbeatEvery = %d, want Deadline/4 = 250", sup.HeartbeatEvery)
	}
	tiny := &Supervisor{Deadline: 2}
	g := New(sim.NewClock(), nil, 0)
	g.AddNode("m0", 64, sim.DefaultCosts())
	if err := g.AttachChaos(nil, tiny); err != nil {
		t.Fatal(err)
	}
	if tiny.HeartbeatEvery != 1 {
		t.Fatalf("tiny-deadline HeartbeatEvery = %d, want the floor 1", tiny.HeartbeatEvery)
	}
}

// --- End-to-end supervision ---

// runSupFleet builds a three-machine fleet with two serving tenants,
// attaches the given schedule (and, when supervised, a watchdog supervisor
// over periodic checkpoints), runs it, and returns the fleet with its
// tenants. m0 is sized so that only alpha fits there: beta spills to m1 and
// keeps the fleet's clock advancing through m0's failures, which is what
// lets the blind watchdog observe the silence.
func runSupFleet(t *testing.T, sched *Schedule, supervised bool) (*Fleet, []*Tenant) {
	t.Helper()
	clock := sim.NewClock()
	clock.SetLimit(4_000_000_000)
	f := New(clock, FirstFit{}, 60_000)
	f.AddNode("m0", 64, sim.DefaultCosts())
	f.AddNode("m1", 256, sim.DefaultCosts())
	f.AddNode("m2", 256, sim.DefaultCosts())
	tenants := []*Tenant{newServingTenant("alpha", 24, 40, 400, meanGap, 31), newServingTenant("beta", 24, 40, 400, meanGap, 32)}
	for _, tn := range tenants {
		f.Add(tn)
	}
	var sup *Supervisor
	if supervised {
		sup = &Supervisor{Deadline: 300_000, HeartbeatEvery: 30_000}
		f.CheckpointEvery = 8
	}
	if err := f.AttachChaos(sched, sup); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := f.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	return f, tenants
}

// TestSupervisorFailsOverCrash: a crash with the supervisor watching. The
// watchdog detects the silent machine blind (two missed deadlines), restores
// its tenant from the periodic checkpoints onto a survivor, and the tenant
// finishes its schedule; the same crash without a supervisor loses the
// tenant for good — and strictly more downtime and more traffic with it.
func TestSupervisorFailsOverCrash(t *testing.T) {
	sched := func() *Schedule {
		return &Schedule{Events: []Event{{At: 2_000_000, Kind: KindCrash, Node: 0}}}
	}

	fSup, supTenants := runSupFleet(t, sched(), true)
	fBare, bareTenants := runSupFleet(t, sched(), false)

	st := fSup.Stats()
	if st.Failures != 1 || st.HeartbeatsMissed != 2 {
		t.Fatalf("supervised stats: failures %d hb-missed %d, want 1/2", st.Failures, st.HeartbeatsMissed)
	}
	if st.Restarts != 1 || st.Failovers != 1 {
		t.Fatalf("supervised stats: restarts %d failovers %d, want 1/1", st.Restarts, st.Failovers)
	}
	if st.RecoveryPointAge == 0 {
		t.Fatal("recovery charged no recovery-point age")
	}
	if n0 := fSup.Nodes()[0]; n0.State() != NodeCrashed {
		t.Fatalf("crashed node state %v", n0.State())
	}
	for _, tn := range supTenants {
		if tn.Err() != nil {
			t.Fatalf("supervised %s err = %v", tn.Name, tn.Err())
		}
		if tn.Node() == fSup.Nodes()[0] {
			t.Fatalf("supervised %s still homed on the crashed machine", tn.Name)
		}
		if tn.Server().PendingSchedule() != 0 {
			t.Fatalf("supervised %s left %d arrivals unfired", tn.Name, tn.Server().PendingSchedule())
		}
	}

	// The unsupervised fleet lost the crashed machine's tenant for good;
	// the survivor was untouched.
	alpha, beta := bareTenants[0], bareTenants[1]
	if !errors.Is(alpha.Err(), ErrCrashed) {
		t.Fatalf("unsupervised alpha err = %v, want ErrCrashed", alpha.Err())
	}
	if alpha.Server().PendingSchedule() == 0 {
		t.Fatal("unsupervised alpha fired its whole schedule despite the crash")
	}
	if beta.Err() != nil {
		t.Fatalf("unsupervised beta err = %v", beta.Err())
	}
	if fBare.Stats().Restarts != 0 || fBare.Stats().HeartbeatsMissed != 0 {
		t.Fatalf("unsupervised fleet healed itself: %+v", fBare.Stats())
	}
	// Self-healing strictly reduces downtime: detection plus restore beats
	// down-until-the-end-of-the-run.
	if st.FailureDowntime >= fBare.Stats().FailureDowntime {
		t.Fatalf("supervised downtime %d >= unsupervised %d",
			st.FailureDowntime, fBare.Stats().FailureDowntime)
	}
}

// TestSupervisorEvacuatesFrozen: a freeze longer than the watchdog deadline.
// The supervisor suspects the silent machine and cordons it; when the
// machine thaws and speaks again, its tenants are evacuated through live
// migration and the machine is fenced — alive, but never trusted again.
func TestSupervisorEvacuatesFrozen(t *testing.T) {
	// The freeze must outlive one watchdog deadline (so the machine is
	// suspected) but thaw before the second expires (so it beats again and
	// is evacuated rather than declared dead): Deadline 300k, freeze 450k.
	sched := &Schedule{Events: []Event{{At: 1_000_000, Kind: KindFreeze, Node: 0, Dur: 450_000}}}
	f, tenants := runSupFleet(t, sched, true)

	if got := sched.Fired(); got != 1 {
		t.Fatalf("fired = %d, want 1", got)
	}
	st := f.Stats()
	if st.Failures != 1 || st.HeartbeatsMissed != 1 {
		t.Fatalf("stats: failures %d hb-missed %d, want 1/1", st.Failures, st.HeartbeatsMissed)
	}
	n0 := f.Nodes()[0]
	if n0.State() != NodeFenced || n0.Accepting() {
		t.Fatalf("thawed suspect: state %v accepting %v, want fenced", n0.State(), n0.Accepting())
	}
	if st.Failovers != 1 || st.Restarts != 0 {
		t.Fatalf("stats: failovers %d restarts %d, want 1 evacuation and no restarts",
			st.Failovers, st.Restarts)
	}
	if st.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1 (evacuation uses the live path)", st.Migrations)
	}
	for _, tn := range tenants {
		if tn.Err() != nil {
			t.Fatalf("%s err = %v", tn.Name, tn.Err())
		}
		if tn.Node() == n0 {
			t.Fatalf("%s still homed on the fenced machine", tn.Name)
		}
		if tn.Server().PendingSchedule() != 0 {
			t.Fatalf("%s left %d arrivals unfired", tn.Name, tn.Server().PendingSchedule())
		}
	}
}

// TestPartitionEventSeversChannel: a partition event reaches the tenants'
// servers; the machine keeps beating, so the supervisor must NOT
// react — traffic is lost, nothing is evacuated.
func TestPartitionEventSeversChannel(t *testing.T) {
	sched := &Schedule{Events: []Event{{At: 1_000_000, Kind: KindPartition, Node: 0, Dur: 1_000_000}}}
	f, tenants := runSupFleet(t, sched, true)

	st := f.Stats()
	if st.Failures != 1 {
		t.Fatalf("failures = %d", st.Failures)
	}
	if st.Failovers != 0 || st.Restarts != 0 || st.HeartbeatsMissed != 0 {
		t.Fatalf("supervisor reacted to a partition: %+v", st)
	}
	if n0 := f.Nodes()[0]; n0.State() != NodeHealthy {
		t.Fatalf("partitioned node state %v, want healthy", n0.State())
	}
	dropped := uint64(0)
	for _, tn := range tenants {
		if tn.Err() != nil {
			t.Fatalf("%s err = %v", tn.Name, tn.Err())
		}
		dropped += tn.Server().Stats().Dropped
	}
	if dropped == 0 {
		t.Fatal("partition lost no traffic")
	}
}
