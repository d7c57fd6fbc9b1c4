// Package sched is the deterministic multi-enclave scheduler: it time-slices
// N enclave processes on the one logical hart of a simulated machine, with
// quanta measured in logical cycles and preemption delivered through the real
// SGX AEX/ERESUME path.
//
// # Execution model
//
// Each spawned task runs its body on a dedicated goroutine, but the package
// enforces a strict coroutine handoff: at any moment exactly one goroutine —
// the scheduler's caller or one task — is running; everyone else is blocked
// on an unbuffered channel. Control transfers only at dispatch (scheduler →
// task) and at yield (task → scheduler), so the simulation stays
// single-threaded in effect, race-detector clean, and byte-deterministic: the
// interleaving is a pure function of the policy, the quantum, and the cycle
// costs — never of goroutine timing. One dispatch transfers nothing: a
// server loop parked in its idle yield whose next pass would only poll and
// yield again has that pass accounted in place (see step).
//
// # Preemption
//
// A dispatch arms a one-shot cycle deadline on the CPU (sgx.CPU.PreemptAt).
// The first enclave access at or past the deadline takes a genuine
// preemption-timer AEX; the host kernel's timer handler upcalls the scheduler
// (hostos.Preemptor), which parks the task's entire execution stream — its
// enclave call stack, EENTER nesting depth and ambient attribution category
// (sgx.ExecContext) — and hands control back to the dispatch loop. When the
// task is next picked, the parked stream resumes exactly where it stopped and
// the kernel completes the context switch with ERESUME. Preemption is thus
// visible to adversaries and defenses alike through the same architectural
// events (AEX counts, TLB flushes, fault masking) as any other exit — which
// is what makes cross-tenant isolation claims testable.
//
// # Accounting
//
// The scheduler measures each time slice on the machine clock and attributes
// it to the running task; its own dispatch work is charged explicitly
// (sim.Costs.SchedDispatch). Task cycles, scheduler overhead and
// outside-the-scheduler cycles therefore sum exactly to the machine's total —
// Accounting.Check verifies the invariant.
package sched

import (
	"errors"

	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// DefaultQuantum is the time-slice length, in logical cycles, used when the
// caller does not choose one. It is a few dozen page-fault round trips long:
// short enough that co-tenants interleave visibly, long enough that dispatch
// overhead stays negligible.
const DefaultQuantum = 200_000

// ErrAborted marks tasks that were unwound because a sibling task (or the
// scheduler itself) panicked — typically a sim.LimitError cycle-budget abort.
// The panic is re-raised on the scheduler's caller once every parked task has
// been unwound; ErrAborted is only ever observed by code inspecting Task.Err
// after recovering it.
var ErrAborted = errors.New("sched: task aborted")

// ErrStalled is returned by Drive when every task has finished while the
// stop predicate is still false: no future dispatch can change the machine,
// so the condition being waited for can never become true.
var ErrStalled = errors.New("sched: drive stalled with no runnable task")

// yieldKind says why a task handed control back to the dispatch loop.
type yieldKind int

const (
	yieldPreempted yieldKind = iota // quantum expired (timer AEX parked it)
	yieldVoluntary                  // task called Yield (idle, nothing to serve)
	yieldFinished                   // run function returned
	yieldPanicked                   // run function panicked; val carries it
)

type yieldMsg struct {
	task *Task
	kind yieldKind
	val  any
}

// resumeMsg wakes a parked task: either to run (abort=false) or to unwind
// its goroutine during an abort (abort=true).
type resumeMsg struct{ abort bool }

// abortUnwind is the panic value that unwinds a parked task's enclave stack
// during an abort. Task.main recovers it and exits quietly.
type abortUnwind struct{}

// Task is one schedulable enclave process under the scheduler.
type Task struct {
	s        *Scheduler
	id       int
	name     string
	priority int
	proc     *hostos.Proc
	run      func() error

	resume chan resumeMsg
	exited chan struct{}

	// saved is the task's execution context while parked mid-run.
	saved sgx.ExecContext
	// idle marks a task parked by a voluntary AEX of its own enclave: the
	// kernel may then poll its server loop in place (see step).
	idle bool

	done bool
	err  error

	cycles      uint64
	slices      uint64
	preemptions uint64
}

// ID is the task's spawn-order index (stable, unique per scheduler).
func (t *Task) ID() int { return t.id }

// Name returns the label given at Spawn.
func (t *Task) Name() string { return t.name }

// Priority returns the task's scheduling priority (higher runs first under
// the Priority policy; ignored by RoundRobin).
func (t *Task) Priority() int { return t.priority }

// Done reports whether the task's run function has returned.
func (t *Task) Done() bool { return t.done }

// Err returns the run function's result (nil until Done).
func (t *Task) Err() error { return t.err }

// Metrics returns the task's scheduling account so far.
func (t *Task) Metrics() TaskMetrics {
	return TaskMetrics{
		Name:        t.name,
		Priority:    t.priority,
		Cycles:      t.cycles,
		Slices:      t.slices,
		Preemptions: t.preemptions,
		Done:        t.done,
	}
}

// TaskMetrics is the per-task slice of the machine's cycle account.
type TaskMetrics struct {
	Name        string
	Priority    int
	Cycles      uint64 // cycles elapsed while this task held the CPU
	Slices      uint64 // dispatches granted
	Preemptions uint64 // involuntary quantum expirations
	Done        bool
}

// Accounting is the machine-wide cycle balance sheet: every cycle on the
// clock is either inside some task's slices, spent by the dispatch loop
// itself, or outside the scheduler entirely (machine construction, enclave
// loading, direct runs).
type Accounting struct {
	Tasks           []TaskMetrics
	TaskCycles      uint64 // sum over Tasks[i].Cycles
	SchedulerCycles uint64 // dispatch-loop overhead
	OutsideCycles   uint64 // cycles not under the scheduler
	TotalCycles     uint64 // the machine clock
}

// Check verifies that the per-task attribution sums to the machine total.
// It can only fail on a bookkeeping bug: the components are disjoint
// clock-delta measurements by construction.
func (a Accounting) Check() error {
	if a.TaskCycles+a.SchedulerCycles+a.OutsideCycles != a.TotalCycles {
		return errors.New("sched: task cycles + overhead + outside != machine cycles")
	}
	return nil
}

// Scheduler owns the dispatch loop for one machine. Create it with New;
// drive it by spawning tasks and calling Wait. It is not safe for concurrent
// use — like the machine it schedules, it belongs to one caller goroutine.
type Scheduler struct {
	kernel  *hostos.Kernel
	cpu     *sgx.CPU
	clock   *sim.Clock
	costs   *sim.Costs
	m       *metrics.Metrics
	policy  Policy
	quantum uint64

	tasks []*Task

	current *Task // task holding the CPU between dispatch and yield
	last    *Task // previously dispatched task (switch detection, policy)
	yield   chan yieldMsg

	waiting   bool
	voluntary bool // the in-flight AEX is a cooperative Yield, not a preemption
	// draining, when non-nil, restricts dispatch to that one task: the
	// machine is quiescing it for migration, and granting slices to anyone
	// else would let new work slip in behind the drain (see Drain).
	draining *Task
	overhead uint64

	// runnable is step's reused dispatch scratch: one dispatch happens per
	// quantum, so rebuilding the slice dominated the scheduler's allocations.
	runnable []*Task
}

// New wires a scheduler to the machine behind k and installs it as the
// kernel's Preemptor. policy nil means round-robin; quantum is the slice
// length in cycles, with 0 meaning run-to-completion (tasks only yield by
// finishing — cooperative FIFO in policy order).
func New(k *hostos.Kernel, policy Policy, quantum uint64) *Scheduler {
	if policy == nil {
		policy = NewRoundRobin()
	}
	s := &Scheduler{
		kernel:  k,
		cpu:     k.CPU,
		clock:   k.Clock,
		costs:   k.Costs,
		m:       metrics.Of(k.Clock),
		policy:  policy,
		quantum: quantum,
		yield:   make(chan yieldMsg),
	}
	k.Preemptor = s
	return s
}

// PolicyName reports the active policy's name.
func (s *Scheduler) PolicyName() string { return s.policy.Name() }

// Quantum reports the configured slice length in cycles.
func (s *Scheduler) Quantum() uint64 { return s.quantum }

// Spawn registers run as a schedulable task. proc is the kernel process the
// task drives (nil for tasks that do not enter an enclave — still scheduled,
// but never preempted mid-slice, since only enclave accesses hit the quantum
// deadline). The task does not start executing until a Wait call dispatches
// it. Spawning from inside a running task is allowed; the new task joins the
// run queue at the next dispatch.
func (s *Scheduler) Spawn(name string, priority int, proc *hostos.Proc, run func() error) *Task {
	t := &Task{
		s:        s,
		id:       len(s.tasks),
		name:     name,
		priority: priority,
		proc:     proc,
		run:      run,
		resume:   make(chan resumeMsg),
		exited:   make(chan struct{}),
	}
	s.tasks = append(s.tasks, t)
	go t.main()
	return t
}

// Tasks returns all spawned tasks in spawn order.
func (s *Scheduler) Tasks() []*Task {
	out := make([]*Task, len(s.tasks))
	copy(out, s.tasks)
	return out
}

// Wait drives the dispatch loop until t is done and returns its error.
// Other runnable tasks receive slices too — Wait advances the whole machine,
// not just t. Calling Wait again for an already-finished task returns
// immediately; calling it from inside a running task deadlocks the handoff,
// so it panics instead.
func (s *Scheduler) Wait(t *Task) error {
	if t.s != s {
		panic("sched: Wait for a task of a different scheduler")
	}
	if s.waiting {
		panic("sched: Wait re-entered (called from inside a scheduled task?)")
	}
	s.waiting = true
	defer func() { s.waiting = false }()
	defer func() {
		if r := recover(); r != nil {
			s.abortAll()
			panic(r)
		}
	}()
	for !t.done {
		s.mustStep()
	}
	s.cpu.PreemptAt = 0
	return t.err
}

// WaitAll drives the dispatch loop until every spawned task is done and
// returns the first error in spawn order.
func (s *Scheduler) WaitAll() error {
	var first error
	for _, t := range s.tasks {
		if err := s.Wait(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Accounting returns the machine-wide cycle balance sheet (see Accounting).
func (s *Scheduler) Accounting() Accounting {
	a := Accounting{
		Tasks:           make([]TaskMetrics, len(s.tasks)),
		SchedulerCycles: s.overhead,
		TotalCycles:     s.clock.Cycles(),
	}
	for i, t := range s.tasks {
		a.Tasks[i] = t.Metrics()
		a.TaskCycles += t.cycles
	}
	a.OutsideCycles = a.TotalCycles - a.TaskCycles - a.SchedulerCycles
	return a
}

// forceRealPolls disables in-place idle polls, so every dispatch hands off
// to the task. It is a test seam: the equivalence tests run each scenario
// both ways and compare the results byte for byte.
var forceRealPolls bool

// step runs one dispatch: pick, charge, arm the quantum, hand off, collect
// the yield, attribute the slice. It reports false, doing nothing, when no
// task is runnable. While a drain is in progress only the draining task is
// eligible — new dispatch of co-tenants is rejected until the quiesce
// completes.
//
// A task parked in its server loop's idle yield is not resumed when the
// kernel can account the loop's next poll in place (hostos.Kernel.
// PollInPlace): that poll would find nothing due and yield again, so the
// slice charges and counts exactly what the handoff would, and the task
// stays parked.
func (s *Scheduler) step() bool {
	runnable := s.runnable[:0]
	for _, t := range s.tasks {
		if !t.done && (s.draining == nil || t == s.draining) {
			runnable = append(runnable, t)
		}
	}
	s.runnable = runnable
	if len(runnable) == 0 {
		return false
	}
	t := s.policy.Pick(runnable, s.last)
	if t == nil || t.done {
		panic("sched: policy picked no runnable task")
	}

	s.clock.ChargeAs(sim.CatFault, s.costs.SchedDispatch)
	s.overhead += s.costs.SchedDispatch
	s.m.Inc(metrics.CntSchedDispatches)
	if s.last != nil && s.last != t {
		s.m.Inc(metrics.CntSchedSwitches)
	}
	s.last = t

	// Arm (or disarm) the one-shot quantum deadline. Overwriting also clears
	// any stale deadline left by a slice that ended without firing it.
	if s.quantum > 0 {
		s.cpu.PreemptAt = s.clock.Cycles() + s.quantum
	} else {
		s.cpu.PreemptAt = 0
	}

	t.slices++
	mark := s.clock.Cycles()
	if t.idle && !forceRealPolls {
		if saved, ok := s.kernel.PollInPlace(t.proc, t.saved); ok {
			t.saved = saved
			t.cycles += s.clock.Cycles() - mark
			return true
		}
	}
	s.current = t
	t.resume <- resumeMsg{}
	msg := <-s.yield
	s.current = nil
	msg.task.cycles += s.clock.Cycles() - mark

	switch msg.kind {
	case yieldPreempted:
		msg.task.preemptions++
		s.m.Inc(metrics.CntSchedPreemptions)
	case yieldVoluntary:
		// A cooperative handoff, not a quantum expiration: the slice ends
		// but no preemption is counted.
	case yieldFinished:
		// Task marked itself done before yielding.
	case yieldPanicked:
		// Re-raise on the scheduler's caller; Wait's deferred recover unwinds
		// the parked siblings first, then propagates the original value (the
		// sim.LimitError contract with the experiment runner).
		panic(msg.val)
	}
	return true
}

// mustStep runs one dispatch for a caller that knows a task is runnable.
func (s *Scheduler) mustStep() {
	if !s.step() {
		panic("sched: step with nothing runnable")
	}
}

// Yield parks the calling task voluntarily and hands the CPU back to the
// dispatch loop — the cooperative analogue of a quantum expiration, used by
// server loops that find their queues empty: instead of burning the rest of
// the slice busy-polling, the task lets co-tenants run and is redispatched
// under the ordinary policy. Inside enclave mode the yield is a real
// voluntary AEX (SSA frame, TLB flush, OS upcall, ERESUME on redispatch);
// either way the execution stream is parked and restored, but no preemption
// is counted. Calling Yield outside a dispatched task (e.g. under a direct
// Process.Run) is a no-op.
func (s *Scheduler) Yield() {
	t := s.current
	if t == nil {
		return
	}
	if _, in := s.cpu.InEnclave(); in {
		// The AEX exits enclave mode and upcalls OnPreempt underneath the
		// kernel's timer handler; the flag tells it this slice ended
		// cooperatively.
		s.voluntary = true
		if err := s.cpu.VoluntaryAEX(); err != nil {
			panic(err)
		}
		return
	}
	// A host-side task (no enclave entered): park the stream directly.
	t.idle = false
	t.saved = s.cpu.SwapContext(sgx.ExecContext{})
	s.yield <- yieldMsg{task: t, kind: yieldVoluntary}
	if msg := <-t.resume; msg.abort {
		panic(abortUnwind{})
	}
	s.cpu.SwapContext(t.saved)
}

// Drive runs the dispatch loop until stop reports true, granting slices to
// every runnable task — the engine under a blocking client call: submit a
// request, then Drive until the correlated reply (or a connection reset)
// shows up. stop is evaluated between dispatches, on the scheduler's
// goroutine. Drive returns ErrStalled if every task finishes while stop is
// still false; like Wait, it must not be called from inside a task.
func (s *Scheduler) Drive(stop func() bool) error {
	if s.waiting {
		panic("sched: Drive re-entered (called from inside a scheduled task?)")
	}
	s.waiting = true
	defer func() { s.waiting = false }()
	defer func() {
		if r := recover(); r != nil {
			s.abortAll()
			panic(r)
		}
	}()
	for !stop() {
		if !s.step() {
			s.cpu.PreemptAt = 0
			return ErrStalled
		}
	}
	s.cpu.PreemptAt = 0
	return nil
}

// Drain quiesces one task for migration: the dispatch loop runs with every
// other task frozen out until t's run function returns — each slice still
// ends with a genuine AEX at the quantum boundary, but only t is ever
// redispatched, so in-flight work drains while new dispatch of co-tenants
// is rejected by construction. The caller is expected to have arranged for
// t's body to terminate once its queues empty (e.g. service.Server.Drain);
// when Drain returns, no quantum of t is in flight and its enclave is ready
// to be sealed and retired. Like Wait, Drain must not be called from inside
// a scheduled task.
func (s *Scheduler) Drain(t *Task) error {
	if t.s != s {
		panic("sched: Drain for a task of a different scheduler")
	}
	if s.waiting {
		panic("sched: Drain re-entered (called from inside a scheduled task?)")
	}
	s.waiting = true
	defer func() { s.waiting = false }()
	defer func() { s.draining = nil }()
	defer func() {
		if r := recover(); r != nil {
			s.abortAll()
			panic(r)
		}
	}()
	s.draining = t
	for !t.done {
		s.mustStep()
	}
	s.cpu.PreemptAt = 0
	return t.err
}

// Draining reports whether a quiesce is in progress (new dispatch of other
// tasks is being rejected).
func (s *Scheduler) Draining() bool { return s.draining != nil }

// Step runs one dispatch if any task is runnable and reports whether it did.
// It is the fleet layer's building block: N machines share one clock, and
// round-robin Step calls interleave their dispatch loops deterministically
// without any machine monopolizing the timeline. Like Wait, it must not be
// called from inside a scheduled task.
func (s *Scheduler) Step() bool {
	if s.waiting {
		panic("sched: Step re-entered (called from inside a scheduled task?)")
	}
	s.waiting = true
	defer func() { s.waiting = false }()
	defer func() {
		if r := recover(); r != nil {
			s.abortAll()
			panic(r)
		}
	}()
	if !s.step() {
		s.cpu.PreemptAt = 0
		return false
	}
	return true
}

// OnPreempt implements hostos.Preemptor. It runs on the preempted task's
// goroutine, underneath the kernel's timer handler: it parks the execution
// stream and returns only when the task is dispatched again, so the ERESUME
// the kernel issues next is the context-switch-in.
func (s *Scheduler) OnPreempt(k *hostos.Kernel, p *hostos.Proc) {
	voluntary := s.voluntary
	s.voluntary = false
	t := s.current
	if t == nil {
		// Timer AEX outside a dispatch (e.g. an adversary's TimerInterval on
		// a directly-run process): not ours, let the kernel resume.
		return
	}
	if t.proc != nil && p != nil && t.proc != p {
		return
	}
	kind := yieldPreempted
	if voluntary {
		kind = yieldVoluntary
	}
	t.idle = voluntary && p != nil && p == t.proc
	t.saved = s.cpu.SwapContext(sgx.ExecContext{})
	s.yield <- yieldMsg{task: t, kind: kind}
	if msg := <-t.resume; msg.abort {
		panic(abortUnwind{})
	}
	s.cpu.SwapContext(t.saved)
}

// Kill crash-stops one task: the parked goroutine is unwound (abandoning
// whatever enclave work was in flight) and the task is marked done with err,
// so no further slice is ever granted. It models a whole-machine crash taking
// the task down between quanta — the enclave's EPC state is left behind for
// the kernel to tear down (or leak, if the machine is gone for good), exactly
// as a power failure would. Killing an already-finished task is a no-op;
// like Wait, Kill must not be called from inside a scheduled task.
func (s *Scheduler) Kill(t *Task, err error) {
	if t.s != s {
		panic("sched: Kill for a task of a different scheduler")
	}
	if s.waiting {
		panic("sched: Kill re-entered (called from inside a scheduled task?)")
	}
	if t.done {
		return
	}
	t.done = true
	t.err = err
	t.resume <- resumeMsg{abort: true}
	<-t.exited
}

// abortAll unwinds every parked task, one at a time, so their deferred
// cleanups (clock category scopes, enclave-entry recovers) never run
// concurrently. Called only from Wait's recover path; afterwards the machine
// is abandoned to the caller's panic.
func (s *Scheduler) abortAll() {
	for _, t := range s.tasks {
		if t.done {
			continue
		}
		t.done = true
		t.err = ErrAborted
		t.resume <- resumeMsg{abort: true}
		<-t.exited
	}
}

// main is the task goroutine: wait for the first dispatch, run the body,
// yield the outcome. All panics from the body — enclave terminations escape
// as error returns before this point, so what reaches here is budget aborts
// and genuine bugs — are shipped to the scheduler goroutine to re-raise.
func (t *Task) main() {
	defer close(t.exited)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(abortUnwind); ok {
			return
		}
		t.done = true
		t.s.yield <- yieldMsg{task: t, kind: yieldPanicked, val: r}
	}()
	if msg := <-t.resume; msg.abort {
		return
	}
	t.err = t.run()
	t.done = true
	t.s.yield <- yieldMsg{task: t, kind: yieldFinished}
}
