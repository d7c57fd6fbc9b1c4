package hostos

import (
	"testing"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// fakeProbe is an IdleProbe whose answer the test sets.
type fakeProbe struct {
	quiet bool
	cost  uint64
	clock *sim.Clock
	polls int
}

func (f *fakeProbe) QuietAt(uint64) (uint64, bool) { return f.cost, f.quiet }
func (f *fakeProbe) Poll() {
	f.polls++
	f.clock.ChargeAs(sim.CatCompute, f.cost)
}

// parkHook plays the scheduler: inside the upcall of a voluntary AEX the
// stream is parked exactly as a real scheduler parks it, so PollInPlace
// sees what it sees at dispatch time.
type parkHook func(k *Kernel, p *Proc)

func (h parkHook) OnPreempt(k *Kernel, p *Proc) { h(k, p) }

// TestPollInPlaceChargesTheRoundTrip: an in-place poll charges and counts
// ERESUME, the poll, the AEX and the timer handler, and leaves the parked
// context's category at the fault path; every guard refuses without
// charging anything.
func TestPollInPlaceChargesTheRoundTrip(t *testing.T) {
	m := newMachine()
	rt := &appRuntime{}
	p, err := m.kernel.LoadEnclave(spec(4, 0, true, rt))
	if err != nil {
		t.Fatal(err)
	}
	probe := &fakeProbe{quiet: true, cost: 7, clock: m.clock}
	m.kernel.Preemptor = parkHook(func(k *Kernel, proc *Proc) {
		saved := m.cpu.SwapContext(sgx.ExecContext{})
		defer m.cpu.SwapContext(saved)

		refuse := func(why string) {
			t.Helper()
			before := m.clock.Cycles()
			if _, ok := k.PollInPlace(proc, saved); ok || m.clock.Cycles() != before {
				t.Errorf("%s: polled in place", why)
			}
		}
		refuse("no probe")
		proc.Idle = probe
		probe.quiet = false
		refuse("busy loop")
		probe.quiet = true
		k.Adversary = &faultCounter{}
		refuse("adversary")
		k.Adversary = NopAdversary{}
		m.clock.SetLimit(m.clock.Cycles() + 10)
		refuse("budget")
		m.clock.SetLimit(0)

		reg := metrics.Of(m.clock)
		before, snap := m.clock.Cycles(), reg.Snapshot()
		want := m.cpu.ResumeCycles() + probe.cost + m.cpu.AEXCycles() + m.costs.OSFaultWork
		next, ok := k.PollInPlace(proc, saved)
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
		m.cpu.SwapContext(next)
		if cat := m.clock.Category(); cat != sim.CatFault {
			t.Errorf("parked category %v, want fault", cat)
		}
		m.cpu.SwapContext(sgx.ExecContext{})
		proc.Idle = nil
	})
	rt.app = func() {
		if err := m.cpu.VoluntaryAEX(); err != nil {
			t.Error(err)
		}
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if probe.polls != 1 {
		t.Fatalf("upcall never ran the in-place poll")
	}
}

// faultCounter is a minimal non-benign adversary.
type faultCounter struct{ n int }

func (a *faultCounter) OnEnclaveFault(*Kernel, *Proc, *mmu.Fault) bool { a.n++; return false }
func (*faultCounter) OnTimer(*Kernel, *Proc)                           {}
