package hostos

import (
	"math"
	"testing"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// fakeProbe is an IdleProbe whose answers the test sets.
type fakeProbe struct {
	quiet bool
	until uint64
	cost  uint64
	clock *sim.Clock
	polls uint64
}

func (f *fakeProbe) QuietAt(uint64) (uint64, bool) { return f.cost, f.quiet }
func (f *fakeProbe) QuietUntil() uint64            { return f.until }
func (f *fakeProbe) Poll(n uint64) {
	f.polls += n
	f.clock.ChargeAs(sim.CatCompute, n*f.cost)
}

// parkHook plays the scheduler: inside the upcall of a voluntary AEX the
// stream is parked exactly as a real scheduler parks it, so PollInPlace
// sees what it sees at dispatch time.
type parkHook func(k *Kernel, p *Proc)

func (h parkHook) OnPreempt(k *Kernel, p *Proc) { h(k, p) }

// parked loads a self-paging enclave on m whose application takes one
// voluntary AEX, and runs fn inside that AEX's scheduler upcall with the
// context the stream was parked with.
func parked(t *testing.T, m *testMachine, fn func(k *Kernel, p *Proc, saved sgx.ExecContext)) {
	t.Helper()
	rt := &appRuntime{}
	p, err := m.kernel.LoadEnclave(spec(4, 0, true, rt))
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	m.kernel.Preemptor = parkHook(func(k *Kernel, proc *Proc) {
		saved := m.cpu.SwapContext(sgx.ExecContext{})
		defer m.cpu.SwapContext(saved)
		fn(k, proc, saved)
		ran = true
	})
	rt.app = func() {
		if err := m.cpu.VoluntaryAEX(); err != nil {
			t.Error(err)
		}
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("upcall never ran")
	}
}

// TestPollInPlaceChargesTheRoundTrip: an in-place poll charges and counts
// ERESUME, the poll, the AEX and the timer handler, and leaves the parked
// context's category at the fault path; every guard refuses without
// charging anything.
func TestPollInPlaceChargesTheRoundTrip(t *testing.T) {
	m := newMachine()
	probe := &fakeProbe{quiet: true, cost: 7, clock: m.clock}
	parked(t, m, func(k *Kernel, proc *Proc, saved sgx.ExecContext) {
		refuseCtx := func(why string, ctx sgx.ExecContext) {
			t.Helper()
			before := m.clock.Cycles()
			if _, ok := k.PollInPlace(proc, ctx, 1, before); ok || m.clock.Cycles() != before {
				t.Errorf("%s: polled in place", why)
			}
		}
		refuse := func(why string) { t.Helper(); refuseCtx(why, saved) }
		refuse("no probe")
		proc.Idle = probe
		probe.quiet = false
		refuse("busy loop")
		probe.quiet = true
		refuseCtx("parked off the fault path", sgx.ExecContext{})
		k.Adversary = &faultCounter{}
		refuse("adversary")
		k.Adversary = NopAdversary{}
		m.clock.SetLimit(m.clock.Cycles() + 10)
		refuse("budget")
		m.clock.SetLimit(0)
		if _, ok := k.PollInPlace(proc, saved, 0, m.clock.Cycles()); ok {
			t.Error("zero polls accounted")
		}

		reg := metrics.Of(m.clock)
		before, snap := m.clock.Cycles(), reg.Snapshot()
		resume, exit := k.InPlaceCycles()
		want := resume + probe.cost + exit
		if resume != m.cpu.ResumeCycles() || exit != m.cpu.AEXCycles()+m.kernel.Costs.OSFaultWork {
			t.Errorf("InPlaceCycles = %d, %d", resume, exit)
		}
		next, ok := k.PollInPlace(proc, saved, 1, before)
		if !ok {
			t.Fatal("quiet parked loop not polled in place")
		}
		if got := m.clock.Cycles() - before; got != want || probe.polls != 1 {
			t.Errorf("in-place poll charged %d cycles over %d polls, want %d over 1", got, probe.polls, want)
		}
		for _, c := range []metrics.Counter{metrics.CntResumes, metrics.CntAEXs, metrics.CntTimerTicks} {
			if d := reg.Count(c) - snap.Counter(c); d != 1 {
				t.Errorf("%s rose by %d, want 1", c.Name(), d)
			}
		}
		if d := reg.Count(metrics.CntTLBFlushes) - snap.Counter(metrics.CntTLBFlushes); d != 2 {
			t.Errorf("%d TLB flushes, want 2", d)
		}
		m.cpu.SwapContext(next)
		if cat := m.clock.Category(); cat != sim.CatFault {
			t.Errorf("parked category %v, want fault", cat)
		}
		m.cpu.SwapContext(sgx.ExecContext{})
		proc.Idle = nil
	})
	if probe.polls != 1 {
		t.Fatalf("upcall never ran the in-place poll")
	}
}

// TestPollInPlaceNPollsEqualSinglePolls: one charge of n polls counts and
// charges exactly what n single polls in a row do, in every category, and
// leaves the loop parked in the same context. A run of polls is refused
// whole, charging nothing, unless its last poll falls before the loop's
// QuietUntil.
func TestPollInPlaceNPollsEqualSinglePolls(t *testing.T) {
	const n = 5
	type outcome struct {
		Snap  metrics.Snapshot
		Next  sgx.ExecContext
		Polls uint64
	}
	run := func(batch bool) outcome {
		m := newMachine()
		probe := &fakeProbe{quiet: true, cost: 7, clock: m.clock, until: math.MaxUint64}
		var out outcome
		parked(t, m, func(k *Kernel, proc *Proc, saved sgx.ExecContext) {
			proc.Idle = probe
			defer func() { proc.Idle = nil }()
			next := saved
			if batch {
				resume, exit := k.InPlaceCycles()
				last := m.clock.Cycles() + (n-1)*(resume+probe.cost+exit)
				before := m.clock.Cycles()
				probe.until = last + resume
				if _, ok := k.PollInPlace(proc, saved, n, last); ok || m.clock.Cycles() != before {
					t.Error("a run reaching the quiet bound polled in place")
				}
				probe.until++
				var ok bool
				if next, ok = k.PollInPlace(proc, saved, n, last); !ok {
					t.Fatal("quiet run not polled in place")
				}
			} else {
				for i := 0; i < n; i++ {
					var ok bool
					if next, ok = k.PollInPlace(proc, next, 1, m.clock.Cycles()); !ok {
						t.Fatalf("poll %d not polled in place", i)
					}
				}
			}
			out = outcome{Snap: metrics.Of(m.clock).Snapshot(), Next: next, Polls: probe.polls}
		})
		return out
	}
	one, many := run(false), run(true)
	if one != many || many.Polls != n {
		t.Fatalf("%d polls at once differ from one at a time:\n at once:    %+v\n one by one: %+v", n, many, one)
	}
}

// faultCounter is a minimal non-benign adversary.
type faultCounter struct{ n int }

func (a *faultCounter) OnEnclaveFault(*Kernel, *Proc, *mmu.Fault) bool { a.n++; return false }
func (*faultCounter) OnTimer(*Kernel, *Proc)                           {}
