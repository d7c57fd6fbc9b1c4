package sched_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/sched"
	"autarky/internal/sim"
)

// The handoff protocol: each task is a coroutine, and the dispatch loop runs
// on the entry point's caller, so every real dispatch is one resume of the
// picked task's coroutine, which yields back when its slice ends, and an
// in-place idle poll resumes nothing.

// TestDrainResumesOnlyTheDrainingTask: a busy task drained beside a
// frozen-out co-tenant is resumed once per slice, every one a real dispatch,
// and the co-tenant never.
func TestDrainResumesOnlyTheDrainingTask(t *testing.T) {
	k := newKernel()
	a := loadProcAt(t, k, "a", 4, 0)
	b := loadProcAt(t, k, "b", 4, 1)
	s := sched.New(k, nil, 10_000)
	ta := spawnRun(s, a, "a", 0, 3000)
	tb := spawnRun(s, b, "b", 0, 3000)
	t.Cleanup(func() { s.Kill(tb, nil) })
	count, restore := sched.CountHandoffs()
	defer restore()
	if err := s.Drain(ta); err != nil {
		t.Fatal(err)
	}
	m := ta.Metrics()
	if m.Slices < 10 || m.Preemptions != m.Slices-1 || tb.Metrics().Slices != 0 {
		t.Fatalf("drained task: %+v, co-tenant %+v; want many preempted slices, and none for the co-tenant",
			m, tb.Metrics())
	}
	if got := count(); got.ToTask != m.Slices || len(got.ByTask) != 1 || got.ByTask[0] != m.Slices {
		t.Fatalf("drain of %d slices made %+v, want one resume of the drained task per slice", m.Slices, got)
	}
}

// TestBusyTasksHandOffOncePerSlice: two busy tasks under Wait take turns,
// every slice a real dispatch, and each task is resumed exactly once per
// slice it is granted.
func TestBusyTasksHandOffOncePerSlice(t *testing.T) {
	k := newKernel()
	a := loadProcAt(t, k, "a", 4, 0)
	b := loadProcAt(t, k, "b", 4, 1)
	s := sched.New(k, nil, 10_000)
	ta := spawnRun(s, a, "a", 0, 3000)
	tb := spawnRun(s, b, "b", 0, 6000)
	t.Cleanup(func() { s.Kill(tb, nil) })
	count, restore := sched.CountHandoffs()
	defer restore()
	if err := s.Wait(ta); err != nil {
		t.Fatal(err)
	}
	na, nb := ta.Metrics().Slices, tb.Metrics().Slices
	if na < 10 || tb.Done() {
		t.Fatalf("a %+v, b %+v: want many slices, with b still busy", ta.Metrics(), tb.Metrics())
	}
	want := sched.Handoffs{ToTask: na + nb, ByTask: []uint64{na, nb}}
	if got := count(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Wait over %d+%d slices made %+v, want %+v", na, nb, got, want)
	}
}

// TestIdlePollsResumeNothing: a dispatch whose idle poll is accounted in
// place, alone under Step or with whole idle rounds under Wait, resumes no
// task.
func TestIdlePollsResumeNothing(t *testing.T) {
	s, servers, k, upcalls := idleServers(t, nil, 2, farArrival)
	polls := func() uint64 { return servers[0].Stats().IdlePolls + servers[1].Stats().IdlePolls }
	before := polls()
	rounds, restoreRounds := sched.CountIdleRounds()
	defer restoreRounds()
	count, restore := sched.CountHandoffs()
	defer restore()
	s.Step()
	waitRounds(s, k.Clock)
	if got := count(); got.ToTask != 0 {
		t.Fatalf("in-place idle dispatches made %+v, want no resume", got)
	}
	if polls() <= before+2 || rounds().Batches != 1 || *upcalls != 0 {
		t.Fatalf("%d idle polls, %+v, %d upcalls: want one in-place poll and a batch of rounds",
			polls()-before, rounds(), *upcalls)
	}
}

// upcallCycles wraps a kernel's scheduler upcall and records the cycle at
// which each one starts. Nothing is charged between a preemption's upcall
// and the dispatch charge that follows it, so that cycle is where the next
// SchedDispatch charge begins.
type upcallCycles struct {
	inner hostos.Preemptor
	clock *sim.Clock
	at    *[]uint64
}

func (u upcallCycles) OnPreempt(k *hostos.Kernel, p *hostos.Proc) {
	*u.at = append(*u.at, u.clock.Cycles())
	u.inner.OnPreempt(k, p)
}

// TestBudgetAbortInDispatchAfterPreemption: a cycle limit that runs out
// inside the SchedDispatch charge following a quantum expiry — a charge the
// loop makes once the preempted task has yielded — aborts Wait with that
// charge's LimitError, marks every task aborted and leaves no task
// coroutine behind.
func TestBudgetAbortInDispatchAfterPreemption(t *testing.T) {
	const expiry = 5 // the quantum expiry whose dispatch charge crosses the limit
	run := func(limit uint64) (upcalls []uint64, tasks []*sched.Task, recovered any) {
		k := newKernel()
		a := loadProcAt(t, k, "a", 4, 0)
		b := loadProcAt(t, k, "b", 4, 1)
		s := sched.New(k, nil, 10_000)
		k.Preemptor = upcallCycles{inner: k.Preemptor, clock: k.Clock, at: &upcalls}
		ta := spawnRun(s, a, "a", 0, 3000)
		spawnRun(s, b, "b", 0, 3000)
		if limit > 0 {
			k.Clock.SetLimit(limit)
		}
		func() {
			defer func() { recovered = recover() }()
			if err := s.Wait(ta); err != nil {
				t.Fatalf("Wait: %v", err)
			}
		}()
		return upcalls, s.Tasks(), recovered
	}
	free, _, r := run(0)
	if r != nil || len(free) <= expiry {
		t.Fatalf("unlimited run: %d upcalls, panic %v; want more than %d and none", len(free), r, expiry)
	}
	at := free[expiry-1]
	upcalls, tasks, r := run(at + 1)
	le, ok := r.(*sim.LimitError)
	want := sim.LimitError{Limit: at + 1, At: at + sim.DefaultCosts().SchedDispatch}
	if !ok || *le != want {
		t.Fatalf("Wait panicked with %v, want %v", r, &want)
	}
	if len(upcalls) != expiry {
		t.Fatalf("%d upcalls before the abort, want %d", len(upcalls), expiry)
	}
	for _, task := range tasks {
		if !errors.Is(task.Err(), sched.ErrAborted) || !task.Done() || !task.Exited() {
			t.Errorf("task %s: done=%v err=%v exited=%v, want an aborted, unwound task",
				task.Name(), task.Done(), task.Err(), task.Exited())
		}
	}
}

// preempting spawns one enclave task per entry of accesses under a
// one-cycle quantum, so that every enclave access takes a timer AEX first
// and is a slice of its own, and the tasks preempt each other at every
// access. Task i makes accesses[i] accesses and finishes, or never finishes
// when that is negative.
func preempting(tb testing.TB, accesses ...int) (*sched.Scheduler, []*sched.Task) {
	tb.Helper()
	k := newKernel()
	s := sched.New(k, nil, 1)
	for i, n := range accesses {
		name := fmt.Sprintf("task%d", i)
		p := loadProcAt(tb, k, name, 4, i)
		task := s.Spawn(name, 0, p.Proc, func() error {
			return p.Run(func(ctx *core.Context) {
				for j := 0; j != n; j++ {
					ctx.Load(p.Heap.Page(0))
				}
			})
		})
		tb.Cleanup(func() { s.Kill(task, nil) })
	}
	return s, s.Tasks()
}

// mallocs reports the heap allocations f makes, measured as
// testing.AllocsPerRun measures them: on one P, after a warm-up run and
// after letting every other runnable goroutine run.
func mallocs(warmUp, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warmUp()
	runtime.Gosched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTaskSwitchZeroAlloc: handing the CPU from task to task allocates
// nothing, under Wait and under Step, whose stop condition the fleet checks
// once per node per round. The warm-up starts every task and sizes the
// dispatch scratch.
func TestTaskSwitchZeroAlloc(t *testing.T) {
	t.Run("wait", func(t *testing.T) {
		s, tasks := preempting(t, 500, 2500, -1)
		wait := func(task *sched.Task) func() {
			return func() {
				if err := s.Wait(task); err != nil {
					t.Fatal(err)
				}
			}
		}
		count, restore := sched.CountHandoffs()
		defer restore()
		allocs := mallocs(wait(tasks[0]), wait(tasks[1]))
		n := count().ToTask
		if n < 5000 || !tasks[1].Done() {
			t.Fatalf("Wait handed off %d times, want a switch per access", n)
		}
		if allocs != 0 {
			t.Errorf("%d task switches allocate %d times, want 0", n, allocs)
		}
	})
	t.Run("step", func(t *testing.T) {
		s, _ := preempting(t, -1, -1)
		s.Step()
		if allocs := testing.AllocsPerRun(100, func() { s.Step() }); allocs != 0 {
			t.Errorf("a dispatch under Step allocates %.1f/op, want 0", allocs)
		}
	})
}

// BenchmarkTaskSwitch measures one slice of two enclave tasks preempting
// each other under Wait: the dispatch, the resume of the other task's
// coroutine and its yield back, and its one access with the timer AEX and
// ERESUME around it.
func BenchmarkTaskSwitch(b *testing.B) {
	s, tasks := preempting(b, b.N/2, -1)
	s.Step() // start both tasks
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Wait(tasks[0]); err != nil {
		b.Fatal(err)
	}
}
