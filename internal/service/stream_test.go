package service

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"autarky/internal/core"
	"autarky/internal/fault"
	"autarky/internal/libos"
	"autarky/internal/sim"
)

// eagerSchedule is the open-loop schedule drawn whole, up front: the
// algorithm Preload ran before it streamed. It draws the arrivals in index
// order onto conns connections and marks a name ops lacks with opUnknown.
func eagerSchedule(ol OpenLoop, conns int, ops []string, plan *fault.Plan, start uint64) []Frame {
	r := sim.NewRand(ol.Seed)
	corr := make([]uint64, conns)
	out := make([]Frame, ol.Requests)
	at := start
	for i := range out {
		at += ol.Arrivals.NextGap(r)
		op, arg := ops[0], uint64(0)
		if ol.NextReq != nil {
			op, arg = ol.NextReq(i, r)
		} else {
			arg = r.Uint64()
		}
		idx := opUnknown
		if k := slices.Index(ops, op); k >= 0 {
			idx = uint8(k)
		}
		c := r.Uint64n(uint64(conns))
		arrive := at
		if plan != nil && plan.Roll(dirDelay, at, c, corr[c]) == fault.KindDelay {
			arrive += plan.DelayCycles
		}
		out[i] = Frame{Kind: FrameRequest, Op: idx, Conn: uint32(c), Corr: corr[c], Arg: arg, Arrive: arrive}
		corr[c]++
	}
	return out
}

// registerOps installs echo plus a second operation, so a NextReq can mix
// them.
func registerOps(p *libos.Process) {
	register(p)
	p.Handle("noop", func(ctx *core.Context, arg uint64) (uint64, error) { return arg, nil })
}

// privateNextReq returns a NextReq whose choices depend on state it owns
// as well as on (i, r), built fresh for each schedule that uses it.
func privateNextReq() func(int, *sim.Rand) (string, uint64) {
	state := uint64(0x5eed)
	return func(i int, r *sim.Rand) (string, uint64) {
		state = state*6364136223846793005 + uint64(i)
		if state>>63 == 1 {
			return "noop", state ^ r.Uint64n(1000)
		}
		return "echo", uint64(i)
	}
}

// streamStep is something a test does to the server between two arrivals.
type streamStep struct {
	after int                                                            // arrivals admitted before it
	do    func(t *testing.T, s *Server, p *libos.Process) *libos.Process // returns the serving incarnation
}

// driveSchedule admits the server's whole schedule by hand: it advances the
// clock to each next arrival, pumps, and pops everything admitted, checking
// PendingSchedule against the eager count at every step. It returns the
// open-loop frames in admission order.
func driveSchedule(t *testing.T, s *Server, p *libos.Process, clock *sim.Clock, total int, steps []streamStep) []Frame {
	t.Helper()
	var got []Frame
	for s.PendingSchedule() > 0 {
		for len(steps) > 0 && len(got) >= steps[0].after {
			p = steps[0].do(t, s, p)
			steps = steps[1:]
		}
		if pending := s.PendingSchedule(); pending != total-len(got) {
			t.Fatalf("after %d arrivals PendingSchedule = %d, want %d", len(got), pending, total-len(got))
		}
		if due := s.quietBefore(); due > clock.Cycles() {
			clock.ChargeAs(sim.CatCompute, due-clock.Cycles())
		}
		s.pump()
		for f, ok := s.pop(); ok; f, ok = s.pop() {
			if f.Kind == FrameRequest {
				got = append(got, f)
			}
		}
	}
	return got
}

// TestStreamedScheduleMatchesEager: what the streamed server admits is,
// frame by frame, the schedule the eager algorithm draws, whatever the
// arrival process, NextReq, channel plan or lifecycle in between.
func TestStreamedScheduleMatchesEager(t *testing.T) {
	delays := fault.Plan{Seed: 0xde1a, PDelay: 0.2, DelayCycles: 90_000}
	drain := func(t *testing.T, s *Server, p *libos.Process) *libos.Process {
		pending := s.PendingSchedule()
		s.Drain()
		s.clock.ChargeAs(sim.CatCompute, 5_000_000) // arrivals come due
		s.pump()
		if _, ok := s.pop(); ok || s.PendingSchedule() != pending {
			t.Fatalf("a draining server admitted arrivals: pending %d, want %d", s.PendingSchedule(), pending)
		}
		q := nextIncarnation(t, p, 1)
		registerOps(q)
		if err := s.Rebind(q); err != nil {
			t.Fatalf("rebind after drain: %v", err)
		}
		return q
	}
	crash := func(t *testing.T, s *Server, p *libos.Process) *libos.Process {
		pending := s.PendingSchedule()
		s.Crash()
		if s.PendingSchedule() != pending {
			t.Fatalf("crash moved PendingSchedule from %d to %d", pending, s.PendingSchedule())
		}
		q := nextIncarnation(t, p, 2)
		registerOps(q)
		if err := s.Rebind(q); err != nil {
			t.Fatalf("rebind after crash: %v", err)
		}
		return q
	}
	for _, tc := range []struct {
		name     string
		ol       func() OpenLoop
		plan     fault.Plan
		lateDial bool
		steps    []streamStep
	}{
		{name: "poisson", ol: func() OpenLoop {
			return OpenLoop{Arrivals: Poisson{MeanGap: 20_000}, Requests: 300, Seed: 1}
		}},
		{name: "bursty", ol: func() OpenLoop {
			return OpenLoop{Arrivals: &Bursty{MeanGap: 20_000, Burst: 7}, Requests: 500, Seed: 2}
		}},
		{name: "private NextReq", ol: func() OpenLoop {
			return OpenLoop{Arrivals: Poisson{MeanGap: 10_000}, Requests: 400, Seed: 3, NextReq: privateNextReq()}
		}},
		{name: "delayed frames", plan: delays, ol: func() OpenLoop {
			return OpenLoop{Arrivals: &Bursty{MeanGap: 30_000, Burst: 3}, Requests: 450, Seed: 4}
		}},
		{name: "late dial", lateDial: true, ol: func() OpenLoop {
			return OpenLoop{Arrivals: Poisson{MeanGap: 15_000}, Requests: 200, Seed: 5}
		}},
		{name: "drain crash rebind", plan: delays, ol: func() OpenLoop {
			return OpenLoop{Arrivals: Poisson{MeanGap: 25_000}, Requests: 600, Seed: 6, NextReq: privateNextReq()}
		}, steps: []streamStep{{after: 70, do: drain}, {after: 300, do: crash}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, clock := newTestProc(t)
			registerOps(p)
			s, err := New(p, Options{ChannelFaults: tc.plan})
			if err != nil {
				t.Fatal(err)
			}
			const conns = 5
			for i := 0; i < conns; i++ {
				s.Dial()
			}
			start := clock.Cycles()
			if err := s.Preload(tc.ol()); err != nil {
				t.Fatalf("preload: %v", err)
			}
			if tc.lateDial {
				s.Dial()
			}
			var plan *fault.Plan
			if !tc.plan.Zero() {
				plan = &tc.plan
			}
			want := eagerSchedule(tc.ol(), conns, p.HandlerNames(), plan, start)
			if len(want) <= ringFrames {
				t.Fatalf("%d arrivals fit one ring", len(want))
			}
			got := driveSchedule(t, s, p, clock, len(want), tc.steps)
			if len(got) != len(want) {
				t.Fatalf("admitted %d arrivals, want %d", len(got), len(want))
			}
			for i := range want {
				got[i].Gen = 0 // the incarnation that admitted it, not part of the schedule
				if got[i] != want[i] {
					t.Fatalf("arrival %d: streamed %+v, eager %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCallIDsStayOffOpenLoopIDs: keep-alives and calls on a connection
// with open-loop traffic take correlation ids from their own range, so
// none equals an open-loop id of the incarnation, and a call's reply
// reaches its caller.
func TestCallIDsStayOffOpenLoopIDs(t *testing.T) {
	p, clock := newTestProc(t)
	register(p)
	s, _ := New(p, Options{KeepAliveEvery: 30_000})
	c, _ := s.Dial()
	s.Dial()
	if err := s.Preload(OpenLoop{Arrivals: &Bursty{MeanGap: 40_000, Burst: 4}, Requests: 200, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	// Admit half the schedule by hand, popping frames without serving them,
	// to see every id; the loop serves the rest.
	openLoop := map[[2]uint64]bool{}
	var calls [][2]uint64
	for s.PendingSchedule() > 100 {
		clock.ChargeAs(sim.CatCompute, 10_000)
		s.pump()
		for f, ok := s.pop(); ok; f, ok = s.pop() {
			id := [2]uint64{uint64(f.Conn), f.Corr}
			if f.Kind == FrameRequest {
				openLoop[id] = true
			} else {
				calls = append(calls, id)
			}
		}
	}
	rest := uint64(s.PendingSchedule())
	corr, gen, err := c.Submit("echo", 41)
	if err != nil {
		t.Fatal(err)
	}
	calls = append(calls, [2]uint64{uint64(c.ID()), corr})
	if len(calls) < 2 || len(openLoop) < 90 {
		t.Fatalf("%d keep-alives and calls, %d open-loop arrivals: too few to compare", len(calls), len(openLoop))
	}
	for _, id := range calls {
		if openLoop[id] || id[1] < callCorr {
			t.Fatalf("keep-alive or call id %#x on conn %d is in the open-loop range", id[1], id[0])
		}
	}
	if err := p.Run(s.Loop); err != nil {
		t.Fatal(err)
	}
	f, ok := c.TakeReply(corr)
	if c.Gen() != gen || !ok || f.Arg != 42 || f.Corr != corr {
		t.Fatalf("call reply = %+v ok=%v, want Arg 42 for corr %#x", f, ok, corr)
	}
	if st := s.Stats(); st.Served != rest+1 {
		t.Fatalf("stats %+v, want %d served (the arrivals left and the call)", st, rest+1)
	}
}

// TestUnknownOpOnlyRefusedUpFront: Preload refuses an unknown operation
// among the first draws; one drawn later is admitted and answered with an
// unknown-operation error reply, which the books count as an error.
func TestUnknownOpOnlyRefusedUpFront(t *testing.T) {
	nameAt := func(bad int) func(int, *sim.Rand) (string, uint64) {
		return func(i int, r *sim.Rand) (string, uint64) {
			if i == bad {
				return "nope", 1
			}
			return "echo", r.Uint64n(100)
		}
	}
	p, _ := newTestProc(t)
	register(p)
	s, _ := New(p, Options{})
	s.Dial()
	s.Dial()
	err := s.Preload(OpenLoop{Arrivals: Poisson{MeanGap: 5_000}, Requests: 300, Seed: 9, NextReq: nameAt(3)})
	var se *Error
	if !errors.Is(err, ErrUnknownOp) || !errors.As(err, &se) || se.Op != "nope" {
		t.Fatalf("unknown op among the first draws: %v, want ErrUnknownOp naming it", err)
	}
	if s.PendingSchedule() != 0 {
		t.Fatalf("a refused preload left %d arrivals pending", s.PendingSchedule())
	}
	if err := s.Preload(OpenLoop{Arrivals: Poisson{MeanGap: 5_000}, Requests: 300, Seed: 9, NextReq: nameAt(ringFrames + 36)}); err != nil {
		t.Fatalf("unknown op past the first draws: %v", err)
	}
	if err := p.Run(s.Loop); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Admitted != 300 || st.Errors != 1 || st.Served != 299 {
		t.Fatalf("stats %+v, want 300 admitted, 1 error, 299 served", st)
	}
	if settled := st.Served + st.Errors + st.Timeouts + st.Dropped; settled != st.Admitted {
		t.Fatalf("books off: admitted %d settled %d", st.Admitted, settled)
	}
	if s.Hist().Count() != 299 {
		t.Fatalf("hist holds %d samples, want 299: an error reply is not a success", s.Hist().Count())
	}
}

// TestOpTableLeavesTheUnknownOpFree: 255 handlers fit the wire op byte;
// a 256th would take the index an unknown open-loop op is sent with.
func TestOpTableLeavesTheUnknownOpFree(t *testing.T) {
	for _, n := range []int{int(opUnknown), int(opUnknown) + 1} {
		p, _ := newTestProc(t)
		for i := 0; i < n; i++ {
			p.Handle(fmt.Sprintf("op%d", i), func(ctx *core.Context, arg uint64) (uint64, error) { return arg, nil })
		}
		s, _ := New(p, Options{})
		s.Dial()
		err := s.Preload(OpenLoop{Arrivals: Poisson{MeanGap: 1}, Requests: 1})
		if (err == nil) != (n == int(opUnknown)) {
			t.Fatalf("%d handlers: preload %v", n, err)
		}
	}
}

// TestPreloadMemoryIsIndependentOfRequests: Preload allocates for the
// connections, not for the requests.
func TestPreloadMemoryIsIndependentOfRequests(t *testing.T) {
	preloadBytes := func(requests int) (uint64, uint64) {
		p, _ := newTestProc(t)
		register(p)
		s, _ := New(p, Options{})
		for i := 0; i < 8; i++ {
			s.Dial()
		}
		if err := s.freezeOps(); err != nil { // its tables are not the schedule's
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.Preload(OpenLoop{Arrivals: Poisson{MeanGap: 1000}, Requests: requests, Seed: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	smallBytes, smallAllocs := preloadBytes(1_000)
	bigBytes, bigAllocs := preloadBytes(1_000_000)
	if smallBytes != bigBytes || smallAllocs != bigAllocs {
		t.Fatalf("Preload allocates %d B in %d objects for 1,000 requests, %d B in %d for 1,000,000",
			smallBytes, smallAllocs, bigBytes, bigAllocs)
	}
	if smallBytes > 4<<10 {
		t.Fatalf("Preload allocates %d B, want the ring and one counter per connection", smallBytes)
	}
}

// arrivalGap is the fixed gap of the arrival-path gate and benchmark.
const arrivalGap = 1_000

// arrivalServer is a server with an endless fixed-gap schedule, so each
// arrive step draws, admits and pops exactly one arrival.
func arrivalServer(tb testing.TB) (*Server, *sim.Clock) {
	tb.Helper()
	p, clock := newTestProc(tb)
	register(p)
	s, _ := New(p, Options{})
	for i := 0; i < 4; i++ {
		s.Dial()
	}
	if err := s.Preload(OpenLoop{Arrivals: fixedGap(arrivalGap), Requests: math.MaxInt, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	return s, clock
}

// fixedGap is an arrival process with one constant gap.
type fixedGap uint64

func (fixedGap) Name() string               { return "fixed" }
func (g fixedGap) NextGap(*sim.Rand) uint64 { return uint64(g) }

// arrive moves the clock to the next arrival, admits it and pops it.
func arrive(s *Server, clock *sim.Clock) {
	clock.ChargeAs(sim.CatCompute, arrivalGap)
	s.pump()
	if _, ok := s.pop(); !ok {
		panic("no arrival admitted")
	}
}

// TestOpenLoopArrivalZeroAlloc gates the steady-state arrival path (see
// DESIGN.md, "Hot paths & allocation discipline"): drawing an arrival,
// refills included, admitting it and popping it allocate nothing.
func TestOpenLoopArrivalZeroAlloc(t *testing.T) {
	s, clock := arrivalServer(t)
	if allocs := testing.AllocsPerRun(4*ringFrames, func() { arrive(s, clock) }); allocs != 0 {
		t.Errorf("open-loop arrival allocates %.2f/op, want 0", allocs)
	}
}

func BenchmarkOpenLoopArrival(b *testing.B) {
	s, clock := arrivalServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrive(s, clock)
	}
}
