package sched_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"autarky"
	"autarky/internal/chaos"
	"autarky/internal/core"
	"autarky/internal/fleet"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sched"
	"autarky/internal/service"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// Equivalence of in-place idle polls (see Scheduler.step): every scenario
// runs twice, once as shipped and once with sched.ForceRealPolls, and
// everything the model counts must come out byte-identical. A counting
// Preemptor shows the shipped run really took fewer scheduler upcalls, so
// the comparison is not vacuous.

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

// bothWays runs scenario with in-place polls and with real ones, requires
// identical outcomes, and returns the upcall counts (in place, real).
func bothWays[T any](t *testing.T, scenario func(upcalls *uint64) T) (uint64, uint64) {
	t.Helper()
	var inPlace, real uint64
	got := scenario(&inPlace)
	restore := sched.ForceRealPolls(true)
	want := scenario(&real)
	restore()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("in-place polls changed the outcome:\n in place: %+v\n real:     %+v", got, want)
	}
	if inPlace == 0 || inPlace >= real {
		t.Fatalf("upcalls: %d in place vs %d real, want fewer but some", inPlace, real)
	}
	return inPlace, real
}

// machineOutcome is everything a serving machine counts.
type machineOutcome struct {
	Metrics autarky.MetricsSnapshot
	Acct    autarky.SchedAccounting
	Stats   []autarky.ServiceStats
	Hists   []autarky.Histogram
	CPU     sgx.CPUStats
	Flushes uint64
	Kernel  hostos.KernelStats
	Calls   []string
}

// serveMachine runs three servers on one machine: two open-loop tenants
// (Poisson with keep-alives, a deadline and a faulty channel; bursty
// without) and one interactive tenant driven by blocking calls.
func serveMachine(policy autarky.SchedPolicy) func(*uint64) machineOutcome {
	return func(upcalls *uint64) machineOutcome {
		m := autarky.NewMachine(autarky.WithEPCFrames(1024), autarky.WithQuantum(40_000),
			autarky.WithScheduler(policy))
		faults := autarky.FaultPlan{Seed: 7, PCorrupt: 0.02, PDelay: 0.05, DelayCycles: 300_000}
		type spec struct {
			name  string
			cfg   autarky.Config
			conns int
			ol    *autarky.OpenLoop
			opts  []autarky.ServeOption
		}
		specs := []spec{
			{"alpha", autarky.Config{Priority: 2, SelfPaging: true, Policy: autarky.PolicyRateLimit, QuotaPages: 20, RateLimitBurst: 1 << 40}, 6,
				&autarky.OpenLoop{Arrivals: autarky.Poisson{MeanGap: 60_000}, Requests: 300, Seed: 11},
				[]autarky.ServeOption{autarky.WithKeepAlive(200_000), autarky.WithDeadline(1_500_000), autarky.WithChannelFaults(faults)}},
			{"beta", autarky.Config{SelfPaging: true, Policy: autarky.PolicyPinAll}, 3,
				&autarky.OpenLoop{Arrivals: &autarky.Bursty{MeanGap: 90_000, Burst: 6}, Requests: 240, Seed: 12}, nil},
			{"gamma", autarky.Config{Priority: 1, SelfPaging: true, Policy: autarky.PolicyPinAll}, 1, nil,
				[]autarky.ServeOption{autarky.WithKeepAlive(100_000), autarky.WithChannelFaults(faults)}},
		}
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
		call := conns[len(conns)-1]
		for i := uint64(0); i < 40; i++ {
			v, err := call.Call("get", i)
			out.Calls = append(out.Calls, fmt.Sprintf("%d/%v", v, err))
		}
		if err := servers[2].Close(); err != nil {
			panic(err)
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
		out.CPU = m.CPU.Stats
		out.Flushes = m.TLB.Flushes
		out.Kernel = m.Kernel.Stats
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

func TestInPlacePollsMatchRealPollsOnMachine(t *testing.T) {
	for _, policy := range []autarky.SchedPolicy{autarky.SchedRoundRobin, autarky.SchedPriority} {
		t.Run(policy.String(), func(t *testing.T) {
			inPlace, real := bothWays(t, serveMachine(policy))
			t.Logf("scheduler upcalls: %d in place, %d real", inPlace, real)
		})
	}
}

// fleetOutcome is everything a fleet run counts.
type fleetOutcome struct {
	Metrics metrics.Snapshot
	Fleet   fleet.Stats
	Acct    []sched.Accounting
	CPU     []sgx.CPUStats
	Flushes []uint64
	Kernel  []hostos.KernelStats
	States  []fleet.NodeState
	Stats   []service.Stats
	Hists   []metrics.Histogram
	Errs    []string
}

// servingTenant is an open-loop fleet tenant whose server survives
// migration, crash and restore.
func servingTenant(name string, seed uint64) (*fleet.Tenant, **service.Server) {
	var srv *service.Server
	tn := &fleet.Tenant{
		Name: name,
		Image: libos.AppImage{
			Name:      name,
			Libraries: []libos.Library{{Name: "libserve.so", Pages: 2}},
			HeapPages: 24,
		},
		Config: libos.Config{SelfPaging: true, Policy: libos.PolicyRateLimit, QuotaPages: 40, RateLimitBurst: 1 << 40},
		Prepare: func(tn *fleet.Tenant, p *libos.Process, first bool) error {
			heap := p.Heap.PageVAs()
			p.Handle("get", func(ctx *core.Context, arg uint64) (uint64, error) {
				va := heap[arg%uint64(len(heap))]
				ctx.Store(va)
				return uint64(va), nil
			})
			if first {
				s, err := service.New(p, service.Options{QueueCap: 64, KeepAliveEvery: 250_000})
				if err != nil {
					return err
				}
				srv = s
				for i := 0; i < 4; i++ {
					if _, err := srv.Dial(); err != nil {
						return err
					}
				}
				if err := srv.Preload(service.OpenLoop{
					Arrivals: service.Poisson{MeanGap: 50_000}, Requests: 400, Seed: seed,
				}); err != nil {
					return err
				}
			} else if err := srv.Rebind(p); err != nil {
				return err
			}
			srv.Idle = tn.Node().Sched.Yield
			return nil
		},
		Body: func(tn *fleet.Tenant, p *libos.Process) error { return p.Run(srv.Loop) },
	}
	tn.Pause = func(*fleet.Tenant) { srv.Drain() }
	tn.Crash = func(*fleet.Tenant) uint64 { return srv.Crash() }
	tn.Partition = func(_ *fleet.Tenant, until uint64) { srv.Partition(until) }
	return tn, &srv
}

// superviseFleet runs three machines and two tenants under a heartbeat
// supervisor through one chaos event: m0 only fits alpha, so beta keeps the
// clock moving on m1 while m0 fails.
func superviseFleet(ev chaos.Event) func(*uint64) fleetOutcome {
	return func(upcalls *uint64) fleetOutcome {
		clock := sim.NewClock()
		clock.SetLimit(4_000_000_000)
		f := fleet.New(clock, fleet.FirstFit{}, 60_000)
		for i, frames := range []int{64, 256, 256} {
			n := f.AddNode(fmt.Sprintf("m%d", i), frames, sim.DefaultCosts())
			n.Kernel.Preemptor = upcallCounter{inner: n.Kernel.Preemptor, n: upcalls}
		}
		alpha, alphaSrv := servingTenant("alpha", 31)
		beta, betaSrv := servingTenant("beta", 32)
		f.Add(alpha)
		f.Add(beta)
		f.CheckpointEvery = 8
		sup := &chaos.Supervisor{Deadline: 300_000, HeartbeatEvery: 30_000}
		if err := chaos.Attach(f, &chaos.Schedule{Events: []chaos.Event{ev}}, sup); err != nil {
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
			out.CPU = append(out.CPU, n.Kernel.CPU.Stats)
			out.Flushes = append(out.Flushes, n.Kernel.CPU.TLB.Flushes)
			out.Kernel = append(out.Kernel, n.Kernel.Stats)
			out.States = append(out.States, n.State())
		}
		for i, srv := range []*service.Server{*alphaSrv, *betaSrv} {
			out.Stats = append(out.Stats, srv.Stats())
			out.Hists = append(out.Hists, *srv.Hist())
			out.Errs = append(out.Errs, fmt.Sprint([]*fleet.Tenant{alpha, beta}[i].Err()))
		}
		return out
	}
}

func TestInPlacePollsMatchRealPollsOnFleet(t *testing.T) {
	cases := []struct {
		name  string
		ev    chaos.Event
		state fleet.NodeState
	}{
		// Suspected, then evacuated by live migration (Drain) and fenced.
		{"freeze", chaos.Event{At: 1_000_000, Kind: chaos.KindFreeze, Node: 0, Dur: 450_000}, fleet.NodeFenced},
		// Declared dead (Kill) and failed over from a checkpoint.
		{"crash", chaos.Event{At: 2_000_000, Kind: chaos.KindCrash, Node: 0}, fleet.NodeCrashed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out fleetOutcome
			scenario := superviseFleet(tc.ev)
			bothWays(t, func(n *uint64) fleetOutcome { out = scenario(n); return out })
			if out.States[0] != tc.state || out.Fleet.Failovers != 1 {
				t.Fatalf("m0 %v with %d failovers, want %v and 1", out.States[0], out.Fleet.Failovers, tc.state)
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
// watches — with or without the seam, it sees each tick.
func TestAdversarySeesEveryIdleTimer(t *testing.T) {
	run := func() (seen, ticks uint64) {
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
		m.Kernel.Adversary = adv
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
		return adv.n, m.Metrics().Counter(metrics.CntTimerTicks)
	}
	seen, ticks := run()
	restore := sched.ForceRealPolls(true)
	seenReal, ticksReal := run()
	restore()
	if seen != ticks || seen == 0 {
		t.Fatalf("adversary saw %d timer interrupts of %d", seen, ticks)
	}
	if seen != seenReal || ticks != ticksReal {
		t.Fatalf("seam changed what the adversary sees: %d/%d vs %d/%d", seen, ticks, seenReal, ticksReal)
	}
}

// idleServer builds a machine with one interactive server parked in its
// idle yield, so every further dispatch is an in-place idle poll.
func idleServer(tb testing.TB) (*sched.Scheduler, *service.Server, *sim.Clock, *uint64) {
	tb.Helper()
	k, clock, costs := newKernel()
	p := loadProcAt(tb, k, clock, costs, "idle", 4, 0)
	p.Handle("get", func(*core.Context, uint64) (uint64, error) { return 0, nil })
	srv, err := service.New(p, service.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.Dial(); err != nil {
		tb.Fatal(err)
	}
	s := sched.New(k, nil, 20_000)
	srv.Idle = s.Yield
	task := s.Spawn("idle", 0, p.Proc, func() error { return p.Run(srv.Loop) })
	tb.Cleanup(func() { s.Kill(task, nil) })
	s.Step() // start the loop; it finds nothing and parks
	var upcalls uint64
	k.Preemptor = upcallCounter{inner: k.Preemptor, n: &upcalls}
	return s, srv, clock, &upcalls
}

func TestIdleDispatchZeroAlloc(t *testing.T) {
	s, srv, _, upcalls := idleServer(t)
	s.Step()
	if *upcalls != 0 || srv.Stats().IdlePolls != 2 {
		t.Fatalf("idle dispatch took %d upcalls, %d polls; want an in-place poll", *upcalls, srv.Stats().IdlePolls)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Step() }); allocs != 0 {
		t.Errorf("in-place idle dispatch allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkIdleDispatch(b *testing.B) {
	s, _, _, _ := idleServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// TestIdlePollAtBudgetFailsLikeRealPoll: when the next poll would cross the
// clock's limit it is not accounted in place, so the budget abort happens
// at the same charge, with the same task outcome, either way.
func TestIdlePollAtBudgetFailsLikeRealPoll(t *testing.T) {
	run := func() string {
		s, srv, clock, _ := idleServer(t)
		clock.SetLimit(clock.Cycles() + 100_000)
		var le *sim.LimitError
		func() {
			defer func() { le, _ = recover().(*sim.LimitError) }()
			for s.Step() {
			}
		}()
		if le == nil {
			t.Fatal("no budget abort")
		}
		task := s.Tasks()[0]
		return fmt.Sprintf("%+v %v %+v %+v %d", *le, errors.Is(task.Err(), sched.ErrAborted),
			task.Metrics(), srv.Stats(), clock.Buckets())
	}
	got := run()
	restore := sched.ForceRealPolls(true)
	want := run()
	restore()
	if got != want {
		t.Fatalf("budget abort differs:\n in place: %s\n real:     %s", got, want)
	}
}
