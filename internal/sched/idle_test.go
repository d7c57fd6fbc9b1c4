package sched_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"autarky"
	"autarky/internal/core"
	"autarky/internal/fleet"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sched"
	"autarky/internal/service"
	"autarky/internal/sim"
)

// Equivalence of in-place idle polls and of whole idle rounds (see
// Scheduler.step): every scenario runs three ways — as shipped, with whole
// idle rounds off (sched.SinglePolls) and with every poll real
// (sched.ForceRealPolls) — and everything the model counts must come out
// byte-identical. A counting Preemptor shows the in-place runs really took
// fewer scheduler upcalls, and sched.CountIdleRounds shows where the shipped
// run accounted whole rounds at once, so no comparison is vacuous.

// upcallCounter wraps a kernel's scheduler upcall and counts it. A poll
// accounted in place takes no upcall.
type upcallCounter struct {
	inner hostos.Preemptor
	n     *uint64
}

func (u upcallCounter) OnPreempt(k *hostos.Kernel, p *hostos.Proc) {
	*u.n++
	u.inner.OnPreempt(k, p)
}

// shipped is what the shipped run of a scenario took: scheduler upcalls,
// against those of the all-real run, and batches of whole idle rounds.
type shipped struct {
	upcalls, real uint64
	sched.IdleRounds
}

// threeWays runs scenario as shipped, with whole idle rounds off and with
// every poll real, requires identical outcomes, and returns the shipped
// run's outcome and what it took.
func threeWays[T any](t *testing.T, scenario func(upcalls *uint64) T) (T, shipped) {
	t.Helper()
	var run shipped
	count, restore := sched.CountIdleRounds()
	got := scenario(&run.upcalls)
	run.IdleRounds = count()
	restore()
	var single uint64
	restore = sched.SinglePolls(true)
	one := scenario(&single)
	restore()
	restore = sched.ForceRealPolls(true)
	want := scenario(&run.real)
	restore()
	if !reflect.DeepEqual(one, want) {
		t.Fatalf("in-place polls changed the outcome:\n in place: %+v\n real:     %+v", one, want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("whole idle rounds changed the outcome:\n rounds: %+v\n real:   %+v", got, want)
	}
	if run.upcalls != single || single == 0 || single >= run.real {
		t.Fatalf("upcalls: %d shipped, %d single polls, %d real; want in place equal, fewer but some",
			run.upcalls, single, run.real)
	}
	return got, run
}

// machineOutcome is everything a serving machine counts. The metrics
// snapshot holds the CPU's, the TLB's and the kernel's counts too.
type machineOutcome struct {
	Metrics autarky.MetricsSnapshot
	Acct    autarky.SchedAccounting
	Stats   []autarky.ServiceStats
	Hists   []autarky.Histogram
	Calls   []string
	// DriveBatches is how many batches of whole idle rounds the blocking
	// calls' Drive accounted: none, in every way.
	DriveBatches uint64
}

// serverSpec is one server of a machine scenario.
type serverSpec struct {
	name  string
	cfg   autarky.Config
	conns int
	ol    *autarky.OpenLoop
	opts  []autarky.ServeOption
}

// serveMachine runs three servers on one machine: two open-loop tenants
// (Poisson with keep-alives, a deadline and a faulty channel; bursty
// without) and one interactive tenant driven by blocking calls.
func serveMachine(policy autarky.SchedPolicy) func(*uint64) machineOutcome {
	faults := autarky.FaultPlan{Seed: 7, PCorrupt: 0.02, PDelay: 0.05, DelayCycles: 300_000}
	return runMachine(policy, 40, []serverSpec{
		{"alpha", autarky.Config{Priority: 2, SelfPaging: true, Policy: autarky.PolicyRateLimit, QuotaPages: 20, RateLimitBurst: 1 << 40}, 6,
			&autarky.OpenLoop{Arrivals: autarky.Poisson{MeanGap: 60_000}, Requests: 300, Seed: 11},
			[]autarky.ServeOption{autarky.WithKeepAlive(200_000), autarky.WithDeadline(1_500_000), autarky.WithChannelFaults(faults)}},
		{"beta", autarky.Config{SelfPaging: true, Policy: autarky.PolicyPinAll}, 3,
			&autarky.OpenLoop{Arrivals: &autarky.Bursty{MeanGap: 90_000, Burst: 6}, Requests: 240, Seed: 12}, nil},
		{"gamma", autarky.Config{Priority: 1, SelfPaging: true, Policy: autarky.PolicyPinAll}, 1, nil,
			[]autarky.ServeOption{autarky.WithKeepAlive(100_000), autarky.WithChannelFaults(faults)}},
	})
}

// quietMachine runs three open-loop servers of equal priority with sparse
// arrivals to their end, so every round of idle polls holds all three, and
// one server's keep-alives on a dozen connections end many batches early.
func quietMachine(policy autarky.SchedPolicy) func(*uint64) machineOutcome {
	return runMachine(policy, 0, []serverSpec{
		{"delta", autarky.Config{SelfPaging: true, Policy: autarky.PolicyPinAll}, 12,
			&autarky.OpenLoop{Arrivals: autarky.Poisson{MeanGap: 900_000}, Requests: 60, Seed: 21},
			[]autarky.ServeOption{autarky.WithKeepAlive(700_000)}},
		{"epsilon", autarky.Config{SelfPaging: true, Policy: autarky.PolicyPinAll}, 2,
			&autarky.OpenLoop{Arrivals: autarky.Poisson{MeanGap: 1_100_000}, Requests: 50, Seed: 22}, nil},
		{"zeta", autarky.Config{SelfPaging: true, Policy: autarky.PolicyPinAll}, 2,
			&autarky.OpenLoop{Arrivals: &autarky.Bursty{MeanGap: 800_000, Burst: 3}, Requests: 60, Seed: 23}, nil},
	})
}

// runMachine serves specs on one machine. With calls > 0 the last server
// is interactive: that many blocking calls go to its last connection, and
// then it closes. WaitAll then runs every server to its end.
func runMachine(policy autarky.SchedPolicy, calls uint64, specs []serverSpec) func(*uint64) machineOutcome {
	return func(upcalls *uint64) machineOutcome {
		m := autarky.NewMachine(autarky.WithEPCFrames(1024), autarky.WithQuantum(40_000),
			autarky.WithScheduler(policy))
		var servers []*autarky.Server
		var conns []*autarky.Conn
		for _, sp := range specs {
			var heap []mmu.VAddr
			get := func(ctx *autarky.Context, arg uint64) (uint64, error) {
				va := heap[arg%uint64(len(heap))]
				ctx.Store(va)
				return uint64(va), nil
			}
			opts := append([]autarky.ServeOption{autarky.WithHandler("get", get)}, sp.opts...)
			srv, err := m.Serve(serveImage(sp.name), sp.cfg, opts...)
			if err != nil {
				panic(err)
			}
			heap = srv.Proc().Process.Heap.PageVAs()
			for i := 0; i < sp.conns; i++ {
				c, err := srv.Dial()
				if err != nil {
					panic(err)
				}
				conns = append(conns, c)
			}
			if sp.ol != nil {
				if err := srv.OpenLoop(*sp.ol); err != nil {
					panic(err)
				}
			}
			servers = append(servers, srv)
		}
		m.Kernel.Preemptor = upcallCounter{inner: m.Kernel.Preemptor, n: upcalls}

		var out machineOutcome
		if calls > 0 {
			count, restore := sched.CountIdleRounds()
			call := conns[len(conns)-1]
			for i := uint64(0); i < calls; i++ {
				v, err := call.Call("get", i)
				out.Calls = append(out.Calls, fmt.Sprintf("%d/%v", v, err))
			}
			out.DriveBatches = count().Batches
			restore()
			if err := servers[len(servers)-1].Close(); err != nil {
				panic(err)
			}
		}
		if err := m.WaitAll(); err != nil {
			panic(err)
		}
		out.Metrics = m.Metrics()
		out.Acct = m.Accounting()
		for _, srv := range servers {
			out.Stats = append(out.Stats, srv.Stats())
			out.Hists = append(out.Hists, *srv.Hist())
		}
		return out
	}
}

func serveImage(name string) autarky.AppImage {
	return autarky.AppImage{
		Name:      name,
		Libraries: []autarky.Library{{Name: "lib" + name + ".so", Pages: 2}},
		HeapPages: 24,
	}
}

// TestInPlacePollsMatchRealPollsOnMachine: under WaitAll the shipped run
// accounts whole rounds of idle polls — rounds of one task under strict
// priority with distinct priorities, of up to three otherwise — and the
// blocking calls' Drive accounts none; every way counts the same.
func TestInPlacePollsMatchRealPollsOnMachine(t *testing.T) {
	scenarios := []struct {
		name     string
		scenario func(*uint64) machineOutcome
		tasks    int // the most tasks a round holds
	}{
		{"round-robin", serveMachine(autarky.SchedRoundRobin), 2},
		{"priority", serveMachine(autarky.SchedPriority), 1},
		{"quiet-round-robin", quietMachine(autarky.SchedRoundRobin), 3},
		{"quiet-priority", quietMachine(autarky.SchedPriority), 3},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			out, run := threeWays(t, sc.scenario)
			if run.Batches == 0 || run.MaxTasks != sc.tasks || out.DriveBatches != 0 {
				t.Fatalf("%+v under WaitAll, %d batches under Drive; want rounds of up to %d tasks and none",
					run.IdleRounds, out.DriveBatches, sc.tasks)
			}
			t.Logf("scheduler upcalls: %d in place, %d real; %+v", run.upcalls, run.real, run.IdleRounds)
		})
	}
}

// fleetOutcome is everything a fleet run counts.
type fleetOutcome struct {
	Metrics metrics.Snapshot
	Fleet   fleet.Stats
	Acct    []sched.Accounting
	States  []fleet.NodeState
	Stats   []service.Stats
	Hists   []metrics.Histogram
	Errs    []string
}

// servingTenant is an open-loop fleet tenant whose server survives
// migration, crash and restore.
func servingTenant(name string, seed uint64) *fleet.Tenant {
	tn := &fleet.Tenant{
		Name: name,
		Image: libos.AppImage{
			Name:      name,
			Libraries: []libos.Library{{Name: "libserve.so", Pages: 2}},
			HeapPages: 24,
		},
		Config: libos.Config{SelfPaging: true, Policy: libos.PolicyRateLimit, QuotaPages: 40, RateLimitBurst: 1 << 40},
	}
	return tn.Serve(fleet.Serving{
		Handlers: func(p *libos.Process) {
			heap := p.Heap.PageVAs()
			p.Handle("get", func(ctx *core.Context, arg uint64) (uint64, error) {
				va := heap[arg%uint64(len(heap))]
				ctx.Store(va)
				return uint64(va), nil
			})
		},
		Options: service.Options{QueueCap: 64, KeepAliveEvery: 250_000},
		Conns:   4,
		Load:    service.OpenLoop{Arrivals: service.Poisson{MeanGap: 50_000}, Requests: 400, Seed: seed},
	})
}

// superviseFleet runs three machines and two tenants under a heartbeat
// supervisor through one chaos event: m0 only fits alpha, so beta keeps the
// clock moving on m1 while m0 fails.
func superviseFleet(ev fleet.Event) func(*uint64) fleetOutcome {
	return func(upcalls *uint64) fleetOutcome {
		clock := sim.NewClock()
		clock.SetLimit(4_000_000_000)
		f := fleet.New(clock, fleet.FirstFit{}, 60_000)
		for i, frames := range []int{64, 256, 256} {
			n := f.AddNode(fmt.Sprintf("m%d", i), frames, sim.DefaultCosts())
			n.Kernel.Preemptor = upcallCounter{inner: n.Kernel.Preemptor, n: upcalls}
		}
		tenants := []*fleet.Tenant{servingTenant("alpha", 31), servingTenant("beta", 32)}
		for _, tn := range tenants {
			f.Add(tn)
		}
		f.CheckpointEvery = 8
		sup := &fleet.Supervisor{Deadline: 300_000, HeartbeatEvery: 30_000}
		if err := f.AttachChaos(&fleet.Schedule{Events: []fleet.Event{ev}}, sup); err != nil {
			panic(err)
		}
		if err := f.Run(); err != nil {
			panic(err)
		}
		if err := f.CheckAccounting(); err != nil {
			panic(err)
		}
		out := fleetOutcome{Metrics: metrics.Of(clock).Snapshot(), Fleet: f.Stats()}
		for _, n := range f.Nodes() {
			out.Acct = append(out.Acct, n.Sched.Accounting())
			out.States = append(out.States, n.State())
		}
		for _, tn := range tenants {
			out.Stats = append(out.Stats, tn.Server().Stats())
			out.Hists = append(out.Hists, *tn.Server().Hist())
			out.Errs = append(out.Errs, fmt.Sprint(tn.Err()))
		}
		return out
	}
}

func TestInPlacePollsMatchRealPollsOnFleet(t *testing.T) {
	cases := []struct {
		name  string
		ev    fleet.Event
		state fleet.NodeState
	}{
		// Suspected, then evacuated by live migration (Drain) and fenced.
		{"freeze", fleet.Event{At: 1_000_000, Kind: fleet.KindFreeze, Node: 0, Dur: 450_000}, fleet.NodeFenced},
		// Declared dead (Kill) and failed over from a checkpoint.
		{"crash", fleet.Event{At: 2_000_000, Kind: fleet.KindCrash, Node: 0}, fleet.NodeCrashed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, run := threeWays(t, superviseFleet(tc.ev))
			if out.States[0] != tc.state || out.Fleet.Failovers != 1 {
				t.Fatalf("m0 %v with %d failovers, want %v and 1", out.States[0], out.Fleet.Failovers, tc.state)
			}
			if run.Batches != 0 {
				t.Fatalf("fleet nodes step one dispatch at a time, yet %d batches of idle rounds ran", run.Batches)
			}
		})
	}
}

// timerCounter is an adversary that only counts timer interrupts.
type timerCounter struct{ n uint64 }

func (*timerCounter) OnEnclaveFault(*hostos.Kernel, *hostos.Proc, *mmu.Fault) bool { return false }
func (a *timerCounter) OnTimer(*hostos.Kernel, *hostos.Proc)                       { a.n++ }

// TestAdversarySeesEveryIdleTimer: a hostile OS watching timer AEXs must
// observe every idle poll's AEX, so none is accounted in place while it
// watches, alone or in a round — whichever way the scheduler runs, it sees
// each tick. Without the adversary the same drain accounts whole rounds.
func TestAdversarySeesEveryIdleTimer(t *testing.T) {
	run := func(watch bool) (seen, ticks uint64) {
		m := autarky.NewMachine(autarky.WithEPCFrames(512), autarky.WithQuantum(40_000))
		srv, err := m.Serve(serveImage("watched"), autarky.Config{SelfPaging: true, Policy: autarky.PolicyPinAll},
			autarky.WithHandler("get", func(*autarky.Context, uint64) (uint64, error) { return 0, nil }))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Dial(); err != nil {
			t.Fatal(err)
		}
		if err := srv.OpenLoop(autarky.OpenLoop{Arrivals: autarky.Poisson{MeanGap: 200_000}, Requests: 100, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		adv := &timerCounter{}
		if watch {
			m.Kernel.Adversary = adv
		}
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
		return adv.n, m.Metrics().Counter(metrics.CntTimerTicks)
	}
	count, restore := sched.CountIdleRounds()
	seen, ticks := run(true)
	watched := count().Batches
	run(false)
	unwatched := count().Batches - watched
	restore()
	restore = sched.SinglePolls(true)
	seenSingle, ticksSingle := run(true)
	restore()
	restore = sched.ForceRealPolls(true)
	seenReal, ticksReal := run(true)
	restore()
	if seen != ticks || seen == 0 {
		t.Fatalf("adversary saw %d timer interrupts of %d", seen, ticks)
	}
	if seen != seenSingle || ticks != ticksSingle || seen != seenReal || ticks != ticksReal {
		t.Fatalf("seams changed what the adversary sees: %d/%d shipped, %d/%d single polls, %d/%d real",
			seen, ticks, seenSingle, ticksSingle, seenReal, ticksReal)
	}
	if watched != 0 || unwatched == 0 {
		t.Fatalf("%d batches of idle rounds with the adversary watching, %d without; want none and some", watched, unwatched)
	}
}

// everyGap is an arrival process with a fixed gap.
type everyGap uint64

func (everyGap) Name() string               { return "every" }
func (g everyGap) NextGap(*sim.Rand) uint64 { return uint64(g) }

// idleServers builds a machine with n servers under policy, each parked in
// its idle yield, so further dispatches are in-place idle polls. With gap 0
// the servers are interactive and stay quiet forever; otherwise each has one
// scheduled arrival, gap cycles after the machine was built.
func idleServers(tb testing.TB, policy sched.Policy, n int, gap uint64) (*sched.Scheduler, []*service.Server, *hostos.Kernel, *uint64) {
	tb.Helper()
	k := newKernel()
	s := sched.New(k, policy, 20_000)
	var servers []*service.Server
	for i := 0; i < n; i++ {
		p := loadProcAt(tb, k, fmt.Sprintf("idle%d", i), 4, i)
		p.Handle("get", func(*core.Context, uint64) (uint64, error) { return 0, nil })
		srv, err := service.New(p, service.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := srv.Dial(); err != nil {
			tb.Fatal(err)
		}
		if gap > 0 {
			if err := srv.Preload(service.OpenLoop{Arrivals: everyGap(gap), Requests: 1}); err != nil {
				tb.Fatal(err)
			}
		}
		srv.Idle = s.Yield
		task := s.Spawn(srv.Name(), 0, p.Proc, func() error { return p.Run(srv.Loop) })
		tb.Cleanup(func() { s.Kill(task, nil) })
		servers = append(servers, srv)
	}
	for range servers {
		s.Step() // start a loop; it finds nothing and parks
	}
	var upcalls uint64
	k.Preemptor = upcallCounter{inner: k.Preemptor, n: &upcalls}
	return s, servers, k, &upcalls
}

// TestIdleDispatchZeroAlloc: an in-place idle poll allocates nothing, under
// either policy.
func TestIdleDispatchZeroAlloc(t *testing.T) {
	for _, kind := range []sched.PolicyKind{sched.RoundRobin, sched.Priority} {
		t.Run(kind.String(), func(t *testing.T) {
			policy, err := sched.NewPolicy(kind)
			if err != nil {
				t.Fatal(err)
			}
			s, servers, _, upcalls := idleServers(t, policy, 1, 0)
			s.Step()
			if polls := servers[0].Stats().IdlePolls; *upcalls != 0 || polls != 2 {
				t.Fatalf("idle dispatch took %d upcalls, %d polls; want an in-place poll", *upcalls, polls)
			}
			if allocs := testing.AllocsPerRun(100, func() { s.Step() }); allocs != 0 {
				t.Errorf("in-place idle dispatch allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

func BenchmarkIdleDispatch(b *testing.B) {
	s, _, _, _ := idleServers(b, nil, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// farArrival and roundsWindow shape the idle-rounds gate and benchmark: two
// servers whose next arrival is far away, and a clock limit raised before
// each dispatch so that every one accounts a batch of whole rounds of the
// same size instead of running straight to the arrival.
const (
	farArrival   = 1 << 62
	roundsWindow = 1 << 20
)

// waitRounds runs one dispatch as Wait does, under a clock limit
// roundsWindow cycles ahead.
func waitRounds(s *sched.Scheduler, clock *sim.Clock) {
	clock.SetLimit(clock.Cycles() + roundsWindow)
	s.WaitStep()
}

// TestIdleRoundsZeroAlloc: a dispatch that accounts whole rounds of idle
// polls at once allocates nothing.
func TestIdleRoundsZeroAlloc(t *testing.T) {
	s, servers, k, upcalls := idleServers(t, nil, 2, farArrival)
	count, restore := sched.CountIdleRounds()
	defer restore()
	allocs := testing.AllocsPerRun(100, func() { waitRounds(s, k.Clock) })
	seen := count()
	if seen.Batches != 101 || seen.MinTasks != 2 || *upcalls != 0 || seen.Polls < 101*20 {
		t.Fatalf("101 dispatches made %+v, with %d upcalls", seen, *upcalls)
	}
	if got := servers[0].Stats().IdlePolls + servers[1].Stats().IdlePolls; got != seen.Polls+2 {
		t.Fatalf("servers count %d idle polls, want %d", got, seen.Polls+2)
	}
	if allocs != 0 {
		t.Errorf("a batch of idle rounds allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkIdleRounds(b *testing.B) {
	s, _, k, _ := idleServers(b, nil, 2, farArrival)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		waitRounds(s, k.Clock)
	}
}

// TestIdleRoundEndsWhereItsPollsEnd: one dispatch that accounts whole
// rounds leaves the machine — clock and attribution, every counter, each
// task's account, and the quantum deadline the last dispatch armed —
// exactly where the single dispatches it stands for leave it.
func TestIdleRoundEndsWhereItsPollsEnd(t *testing.T) {
	type state struct {
		Snap      metrics.Snapshot
		Acct      sched.Accounting
		PreemptAt uint64
	}
	run := func(steps uint64) (state, sched.IdleRounds) {
		s, _, k, _ := idleServers(t, nil, 3, farArrival)
		k.Clock.SetLimit(k.Clock.Cycles() + roundsWindow)
		count, restore := sched.CountIdleRounds()
		defer restore()
		for i := uint64(0); i < steps; i++ {
			s.WaitStep()
		}
		return state{metrics.Of(k.Clock).Snapshot(), s.Accounting(), k.CPU.PreemptAt}, count()
	}
	batched, seen := run(1)
	if seen.Batches != 1 || seen.MinTasks != 3 || seen.Polls < 6 {
		t.Fatalf("one dispatch accounted %+v, want one batch of whole rounds of three", seen)
	}
	restore := sched.SinglePolls(true)
	single, _ := run(seen.Polls)
	restore()
	if !reflect.DeepEqual(batched, single) {
		t.Fatalf("a batch of %d polls differs from as many dispatches:\n batch:  %+v\n single: %+v", seen.Polls, batched, single)
	}
}

// budgetAbort drives s with drive until the clock's limit aborts it, and
// reports everything the abort leaves behind.
func budgetAbort(t *testing.T, s *sched.Scheduler, servers []*service.Server, clock *sim.Clock, drive func()) string {
	t.Helper()
	var le *sim.LimitError
	func() {
		defer func() { le, _ = recover().(*sim.LimitError) }()
		drive()
	}()
	if le == nil {
		t.Fatal("no budget abort")
	}
	out := fmt.Sprintf("%+v %+v %d", *le, metrics.Of(clock).Snapshot(), clock.Buckets())
	for i, task := range s.Tasks() {
		out += fmt.Sprintf(" %v %+v %+v", errors.Is(task.Err(), sched.ErrAborted), task.Metrics(), servers[i].Stats())
	}
	return out
}

// TestIdlePollAtBudgetFailsLikeRealPoll: when the next poll would cross the
// clock's limit it is not accounted in place, so the budget abort happens
// at the same charge, with the same task outcome, every way. Under Wait the
// limit falls inside what would be a batch of whole rounds: the batches
// stop short of it, and the abort happens on a single poll's path.
func TestIdlePollAtBudgetFailsLikeRealPoll(t *testing.T) {
	legs := []struct {
		name    string
		rounds  bool
		servers int
		gap     uint64
		budget  uint64
		drive   func(*sched.Scheduler)
	}{
		{"step", false, 1, 0, 100_000, func(s *sched.Scheduler) {
			for s.Step() {
			}
		}},
		{"wait", true, 2, 40_000_000, 3_000_000, func(s *sched.Scheduler) {
			_ = s.Wait(s.Tasks()[0])
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			run := func() string {
				s, servers, k, _ := idleServers(t, nil, leg.servers, leg.gap)
				k.Clock.SetLimit(k.Clock.Cycles() + leg.budget)
				return budgetAbort(t, s, servers, k.Clock, func() { leg.drive(s) })
			}
			count, restore := sched.CountIdleRounds()
			got := run()
			batches := count().Batches
			restore()
			restore = sched.SinglePolls(true)
			single := run()
			restore()
			restore = sched.ForceRealPolls(true)
			want := run()
			restore()
			if got != want || single != want {
				t.Fatalf("budget abort differs:\n shipped:      %s\n single polls: %s\n real:         %s", got, single, want)
			}
			if leg.rounds != (batches > 0) {
				t.Fatalf("%d batches of idle rounds before the abort", batches)
			}
		})
	}
}
