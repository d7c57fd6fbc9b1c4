package sched_test

import (
	"errors"
	"reflect"
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sched"
	"autarky/internal/sim"
)

func newKernel() *hostos.Kernel {
	return hostos.NewHost(sim.NewClock(), sim.DefaultCosts(), hostos.DefaultGeometry(2048), []byte("sched-test"))
}

// nextBase hands out disjoint ELRANGEs for co-resident enclaves.
var testBases = []mmu.VAddr{0x10_0000_0000, 0x20_0000_0000, 0x30_0000_0000, 0x40_0000_0000}

func loadProcAt(t testing.TB, k *hostos.Kernel, name string, heap, slot int) *libos.Process {
	t.Helper()
	img := libos.AppImage{
		Name:      name,
		Libraries: []libos.Library{{Name: "a.so", Pages: 1}},
		HeapPages: heap,
	}
	cfg := libos.Config{Base: testBases[slot], SelfPaging: true, Policy: libos.PolicyPinAll}
	p, err := libos.Load(k, img, cfg)
	if err != nil {
		t.Fatalf("Load %s: %v", name, err)
	}
	return p
}

// touchLoop sweeps the heap `rounds` times — enough enclave accesses for the
// quantum deadline to fire many times per task.
func touchLoop(p *libos.Process, rounds int) func(*core.Context) {
	return func(ctx *core.Context) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < p.Heap.Pages; i++ {
				ctx.Load(p.Heap.Page(i))
			}
		}
	}
}

func spawnRun(s *sched.Scheduler, p *libos.Process, name string, pri, rounds int) *sched.Task {
	return s.Spawn(name, pri, p.Proc, func() error {
		return p.Run(touchLoop(p, rounds))
	})
}

func TestRoundRobinPreemptsAndFinishesAll(t *testing.T) {
	k := newKernel()
	a := loadProcAt(t, k, "a", 4, 0)
	b := loadProcAt(t, k, "b", 4, 1)
	s := sched.New(k, sched.NewRoundRobin(), 20_000)
	ta := spawnRun(s, a, "a", 0, 3000)
	tb := spawnRun(s, b, "b", 0, 3000)
	if err := s.WaitAll(); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	for _, task := range []*sched.Task{ta, tb} {
		if !task.Done() || task.Err() != nil {
			t.Fatalf("task %s: done=%v err=%v", task.Name(), task.Done(), task.Err())
		}
		m := task.Metrics()
		if m.Preemptions == 0 {
			t.Errorf("task %s never preempted (slices=%d)", task.Name(), m.Slices)
		}
		if m.Slices < 2 {
			t.Errorf("task %s got %d slices, want interleaving", task.Name(), m.Slices)
		}
	}
	snap := metrics.Of(k.Clock).Snapshot()
	if snap.Counter(metrics.CntSchedPreemptions) == 0 ||
		snap.Counter(metrics.CntSchedSwitches) == 0 ||
		snap.Counter(metrics.CntSchedDispatches) == 0 {
		t.Errorf("scheduler counters not recorded: %+v", snap.Counters)
	}
	if err := snap.Check(); err != nil {
		t.Errorf("attribution invariant: %v", err)
	}
}

func TestAccountingSumsToMachineCycles(t *testing.T) {
	k := newKernel()
	a := loadProcAt(t, k, "a", 4, 0)
	b := loadProcAt(t, k, "b", 4, 1)
	s := sched.New(k, nil, 15_000)
	spawnRun(s, a, "a", 0, 2000)
	spawnRun(s, b, "b", 0, 2000)
	if err := s.WaitAll(); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	acct := s.Accounting()
	if err := acct.Check(); err != nil {
		t.Fatal(err)
	}
	if acct.TotalCycles != k.Clock.Cycles() {
		t.Fatalf("TotalCycles %d, clock %d", acct.TotalCycles, k.Clock.Cycles())
	}
	if acct.TaskCycles == 0 || acct.SchedulerCycles == 0 || acct.OutsideCycles == 0 {
		t.Fatalf("degenerate accounting: %+v", acct)
	}
}

func TestSchedulingIsDeterministic(t *testing.T) {
	run := func() (sched.Accounting, uint64) {
		k := newKernel()
		a := loadProcAt(t, k, "a", 4, 0)
		b := loadProcAt(t, k, "b", 6, 1)
		c := loadProcAt(t, k, "c", 2, 2)
		s := sched.New(k, sched.NewRoundRobin(), 12_000)
		spawnRun(s, a, "a", 0, 900)
		spawnRun(s, b, "b", 0, 600)
		spawnRun(s, c, "c", 0, 1500)
		if err := s.WaitAll(); err != nil {
			t.Fatalf("WaitAll: %v", err)
		}
		return s.Accounting(), k.Clock.Cycles()
	}
	acct1, cyc1 := run()
	acct2, cyc2 := run()
	if cyc1 != cyc2 {
		t.Fatalf("cycle counts differ: %d vs %d", cyc1, cyc2)
	}
	if !reflect.DeepEqual(acct1, acct2) {
		t.Fatalf("accounting differs:\n%+v\n%+v", acct1, acct2)
	}
}

func TestPriorityRunsHighClassFirst(t *testing.T) {
	k := newKernel()
	lo := loadProcAt(t, k, "lo", 4, 0)
	hi := loadProcAt(t, k, "hi", 4, 1)
	s := sched.New(k, sched.NewPriority(), 10_000)
	var order []string
	spawn := func(p *libos.Process, name string, pri int) {
		s.Spawn(name, pri, p.Proc, func() error {
			err := p.Run(touchLoop(p, 1200))
			order = append(order, name)
			return err
		})
	}
	spawn(lo, "lo", 0)
	spawn(hi, "hi", 5) // spawned second, but must finish first
	if err := s.WaitAll(); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	want := []string{"hi", "lo"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
}

func TestZeroQuantumRunsToCompletion(t *testing.T) {
	k := newKernel()
	a := loadProcAt(t, k, "a", 4, 0)
	b := loadProcAt(t, k, "b", 4, 1)
	s := sched.New(k, nil, 0)
	ta := spawnRun(s, a, "a", 0, 50)
	tb := spawnRun(s, b, "b", 0, 50)
	if err := s.WaitAll(); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	for _, task := range []*sched.Task{ta, tb} {
		m := task.Metrics()
		if m.Slices != 1 || m.Preemptions != 0 {
			t.Errorf("task %s: slices=%d preemptions=%d, want one uninterrupted slice",
				task.Name(), m.Slices, m.Preemptions)
		}
	}
}

func TestNonEnclaveTaskSchedules(t *testing.T) {
	k := newKernel()
	a := loadProcAt(t, k, "a", 4, 0)
	s := sched.New(k, nil, 10_000)
	ran := false
	tc := s.Spawn("compute", 0, nil, func() error {
		k.Clock.ChargeAmbient(5_000)
		ran = true
		return nil
	})
	spawnRun(s, a, "a", 0, 40)
	if err := s.WaitAll(); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	if !ran || !tc.Done() {
		t.Fatal("non-enclave task did not run")
	}
	if m := tc.Metrics(); m.Cycles < 5_000 {
		t.Fatalf("compute task attributed %d cycles, want >= 5000", m.Cycles)
	}
}

func TestBudgetAbortUnwindsParkedTasks(t *testing.T) {
	k := newKernel()
	a := loadProcAt(t, k, "a", 4, 0)
	b := loadProcAt(t, k, "b", 4, 1)
	s := sched.New(k, nil, 10_000)
	ta := spawnRun(s, a, "a", 0, 1<<20)
	tb := spawnRun(s, b, "b", 0, 1<<20)
	k.Clock.SetLimit(k.Clock.Cycles() + 400_000)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = s.WaitAll()
	}()
	var le *sim.LimitError
	if !errors.As(toErr(recovered), &le) {
		t.Fatalf("recovered %v, want *sim.LimitError", recovered)
	}
	// Both tasks were unwound: one carried the panic, the other was aborted.
	aborted := 0
	for _, task := range []*sched.Task{ta, tb} {
		if !task.Done() {
			t.Fatalf("task %s not unwound", task.Name())
		}
		if errors.Is(task.Err(), sched.ErrAborted) {
			aborted++
		}
	}
	if aborted != 1 {
		t.Fatalf("%d tasks marked aborted, want exactly 1", aborted)
	}
}

func toErr(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return nil
}

func TestPolicyKindStringsAndConstruction(t *testing.T) {
	if sched.RoundRobin.String() != "round-robin" || sched.Priority.String() != "priority" {
		t.Fatal("policy kind names wrong")
	}
	for _, kind := range []sched.PolicyKind{sched.RoundRobin, sched.Priority} {
		if p, err := sched.NewPolicy(kind); err != nil || p == nil {
			t.Fatalf("NewPolicy(%v): %v %v", kind, p, err)
		}
	}
	if _, err := sched.NewPolicy(sched.PolicyKind(99)); err == nil {
		t.Fatal("unknown policy kind accepted")
	}
}

// TestKillCrashStopsParkedTask: Kill between quanta unwinds a parked task,
// pins the caller's sentinel as its error, and leaves the rest of the
// machine — survivors and the cycle balance sheet — intact. Killing the
// same task again is a no-op, and Kill refuses foreign tasks and re-entry
// from inside a scheduled task.
func TestKillCrashStopsParkedTask(t *testing.T) {
	k := newKernel()
	a := loadProcAt(t, k, "a", 4, 0)
	b := loadProcAt(t, k, "b", 4, 1)
	s := sched.New(k, nil, 15_000)
	victim := spawnRun(s, a, "victim", 0, 20000)
	survivor := spawnRun(s, b, "survivor", 0, 20000)

	// Give both tasks some slices so the victim is genuinely mid-run —
	// parked with enclave work in flight — when the crash takes it.
	for i := 0; i < 8; i++ {
		if !s.Step() {
			t.Fatal("machine finished before the crash")
		}
	}
	if victim.Done() || survivor.Done() {
		t.Fatal("a task finished before the crash")
	}

	crash := errors.New("machine lost")
	s.Kill(victim, crash)
	if !victim.Done() || victim.Err() != crash {
		t.Fatalf("victim: done=%v err=%v, want the crash sentinel", victim.Done(), victim.Err())
	}
	s.Kill(victim, errors.New("second crash")) // no-op on a finished task
	if victim.Err() != crash {
		t.Fatalf("second Kill rewrote the error: %v", victim.Err())
	}

	if err := s.Wait(survivor); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if got := s.WaitAll(); got != crash {
		t.Fatalf("WaitAll = %v, want the crash sentinel", got)
	}
	acct := s.Accounting()
	if err := acct.Check(); err != nil {
		t.Fatal(err)
	}
	if acct.TotalCycles != k.Clock.Cycles() {
		t.Fatalf("TotalCycles %d, clock %d", acct.TotalCycles, k.Clock.Cycles())
	}

	// Kill for a task of a different scheduler panics.
	s2 := sched.New(k, nil, 15_000)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-scheduler Kill did not panic")
			}
		}()
		s2.Kill(victim, crash)
	}()

	// Kill from inside a scheduled task panics rather than stopping a task's
	// coroutine from inside another's.
	reentry := make(chan any, 1)
	target := s2.Spawn("target", 0, nil, func() error {
		s2.Yield()
		return nil
	})
	s2.Spawn("re-enter", 0, nil, func() error {
		defer func() { reentry <- recover() }()
		s2.Kill(target, crash)
		return nil
	})
	if err := s2.WaitAll(); err != nil {
		t.Fatalf("re-entry machine: %v", err)
	}
	if r := <-reentry; r == nil {
		t.Error("re-entrant Kill did not panic")
	}
}
