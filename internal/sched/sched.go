// Package sched is the deterministic multi-enclave scheduler: it time-slices
// N enclave processes on the one logical hart of a simulated machine, with
// quanta measured in logical cycles and preemption delivered through the real
// SGX AEX/ERESUME path.
//
// # Execution model
//
// Each spawned task runs its body on a dedicated goroutine, but the package
// enforces a strict coroutine handoff: at any moment exactly one goroutine —
// an entry point's caller or one task — holds the CPU; every other one is
// blocked on an unbuffered channel. The dispatch loop (pick, charge, arm the
// quantum, account idle polls in place) is one function, dispatch, that runs
// on whichever goroutine holds the CPU. An entry point (Wait, Drive, Drain,
// Step) runs it on its caller's goroutine up to the first real dispatch,
// hands that task the CPU and sleeps. From then on a task whose slice ends —
// preempted, idle in Yield, or finished — accounts the slice and runs the
// loop itself, on its own goroutine: when the loop picks it again it returns
// into the task with no goroutine switch, and otherwise it resumes the next
// task directly, one switch per dispatch. The caller is woken only when its
// stop condition holds, nothing is runnable, or the loop panics; a panic the
// loop raises on a task's goroutine is carried to the caller and re-raised
// there. So the simulation stays single-threaded in effect, race-detector
// clean, and byte-deterministic: the interleaving is a pure function of the
// policy, the quantum, and the cycle costs — never of goroutine timing, nor
// of which goroutine runs the loop. A dispatch may also transfer nothing: a
// server loop parked in its idle yield whose next pass would only poll and
// yield again has that pass accounted in place, and under Wait a whole run
// of such passes, round after round of idle tasks, costs one dispatch (see
// pollIdle).
//
// # Preemption
//
// A dispatch arms a one-shot cycle deadline on the CPU (sgx.CPU.PreemptAt).
// The first enclave access at or past the deadline takes a genuine
// preemption-timer AEX; the host kernel's timer handler upcalls the scheduler
// (hostos.Preemptor), which parks the task's entire execution stream — its
// enclave call stack, EENTER nesting depth and ambient attribution category
// (sgx.ExecContext) — and runs the dispatch loop on from there. When the
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
	"math"

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

	cycles uint64
	// m is the task's scope of the machine registry: its dispatches and
	// preemptions are counted there.
	m *metrics.Metrics
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
		Slices:      t.m.Count(metrics.CntSchedDispatches),
		Preemptions: t.m.Count(metrics.CntSchedPreemptions),
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

	current *Task  // task holding the CPU between dispatch and yield
	mark    uint64 // the cycle current's slice began at
	last    *Task  // previously dispatched task (switch detection, policy)

	// until is the stop condition of the entry point running the loop;
	// dispatched and stalled are what the loop found, for the entry point.
	until      until
	dispatched bool // a dispatch was made (Step's stop condition)
	stalled    bool // the loop ended with nothing runnable
	// wake hands the CPU back to the entry point's caller when the loop
	// ends on a task's goroutine: nil, or the panic to re-raise there.
	wake chan any

	waiting   bool
	voluntary bool // the in-flight AEX is a cooperative Yield, not a preemption
	overhead  uint64

	// runnable is dispatch's reused scratch: one dispatch happens per
	// quantum, so rebuilding the slice dominated the scheduler's allocations.
	runnable []*Task
	// round is pollIdle's reused scratch: the tasks of a round of idle polls.
	round []idler
}

// until is what ends an entry point's run of the dispatch loop, and how the
// loop runs meanwhile. With neither task nor stop set, the loop stops after
// one dispatch (Step).
type until struct {
	task *Task       // Wait and Drain: stop once task is done
	stop func() bool // Drive: stop once stop reports true
	// rounds lets one dispatch account whole rounds of idle polls (Wait).
	rounds bool
	// drain restricts dispatch to task: the machine is quiescing it for
	// migration, and granting slices to anyone else would let new work slip
	// in behind the drain (see Drain).
	drain bool
}

// idler is one task of a round of in-place idle polls (see idleRound): at is
// the cycle its dispatch in the first round hands over at, loop the probe of
// its parked server loop.
type idler struct {
	task *Task
	at   uint64
	loop hostos.IdleProbe
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
		wake:    make(chan any),
	}
	k.Preemptor = s
	return s
}

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
		m:        s.m.Scope(),
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
	// Only t's end stops the loop, and no quiet poll can bring it about, so
	// Wait may account whole rounds of idle polls in one dispatch.
	s.run("Wait", until{task: t, rounds: true})
	s.cpu.PreemptAt = 0
	return t.err
}

// run drives the dispatch loop for an entry point until u says stop. The
// loop must not be re-entered from inside a task, whose goroutine would then
// wait on its own handoff, so a nested entry panics. run starts the loop on
// its caller's goroutine, hands the first real dispatch its task, and
// sleeps until the loop, carried on from task to task, wakes it.
func (s *Scheduler) run(entry string, u until) {
	if s.waiting {
		panic("sched: " + entry + " re-entered (called from inside a scheduled task?)")
	}
	s.waiting = true
	s.until, s.dispatched, s.stalled = u, false, false
	defer s.leave()
	if t := s.dispatch(); t != nil {
		s.resume(t)
		if r := <-s.wake; r != nil {
			panic(r)
		}
	}
}

// leave closes an entry point. A panic escaping the dispatch loop (a budget
// abort or a bug), on the caller's goroutine or carried there from a task's,
// first unwinds every unfinished task, so no task goroutine outlives the
// loop, and then propagates.
func (s *Scheduler) leave() {
	s.until = until{}
	if r := recover(); r != nil {
		s.abortAll()
		s.waiting = false
		panic(r)
	}
	s.waiting = false
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
// to the task; singlePolls disables whole idle rounds, so every in-place
// poll is accounted on its own dispatch; onIdleRounds, when set, is told
// the size of each batch of rounds accounted; onHandoff, when set, is told
// of each goroutine switch of the handoff: the task handed the CPU, or nil
// when the caller is woken. All four are test seams: the equivalence tests
// run each scenario every way, compare the results byte for byte, and check
// that batches and switches happened where they should and nowhere else.
var (
	forceRealPolls bool
	singlePolls    bool
	onIdleRounds   func(rounds uint64, tasks int)
	onHandoff      func(to *Task)
)

// dispatch is the dispatch loop. It runs on whichever goroutine holds the
// CPU while no task does: an entry point's caller before the first real
// dispatch, afterwards the task whose slice has just been accounted. Until
// the entry point's stop condition holds it picks a task, charges the
// dispatch and arms the quantum. It returns the task that dispatch hands
// the CPU to, or nil once the condition holds or, with stalled set,
// nothing is runnable. While a drain is in progress only the draining task
// is eligible — new dispatch of co-tenants is rejected until the quiesce
// completes.
//
// A task parked in its server loop's idle yield is not resumed when the
// kernel can account the loop's next poll in place (hostos.Kernel.
// PollInPlace): that poll would find nothing due and yield again, so the
// dispatch charges and counts exactly what the handoff would, the task
// stays parked, and the loop goes on. With until.rounds set, which only
// Wait does, one dispatch may account whole rounds of such polls at once
// (see idleRound); Step, Drive and Drain account at most one, because the
// fleet interleaves its machines one dispatch at a time, a Drive predicate
// reads the clock between dispatches, and a draining loop is never quiet.
func (s *Scheduler) dispatch() *Task {
	for !s.stopped() {
		runnable := s.runnable[:0]
		for _, t := range s.tasks {
			if !t.done && (!s.until.drain || t == s.until.task) {
				runnable = append(runnable, t)
			}
		}
		s.runnable = runnable
		if len(runnable) == 0 {
			s.stalled = true
			return nil
		}
		t := s.policy.Pick(runnable, s.last)
		if t == nil || t.done {
			panic("sched: policy picked no runnable task")
		}

		s.clock.ChargeAs(sim.CatFault, s.costs.SchedDispatch)
		s.overhead += s.costs.SchedDispatch
		t.m.Inc(metrics.CntSchedDispatches)
		if s.last != nil && s.last != t {
			s.m.Inc(metrics.CntSchedSwitches)
		}
		s.last = t
		s.dispatched = true
		s.arm(s.clock.Cycles())

		if !t.idle || forceRealPolls || !s.pollIdle(t, s.until.rounds) {
			return t
		}
	}
	return nil
}

// stopped reports whether the stop condition of the entry point running
// the loop holds.
func (s *Scheduler) stopped() bool {
	switch {
	case s.until.task != nil:
		return s.until.task.done
	case s.until.stop != nil:
		return s.until.stop()
	}
	return s.dispatched
}

// resume hands the CPU to t, parked, for a slice that begins now.
func (s *Scheduler) resume(t *Task) {
	s.current, s.mark = t, s.clock.Cycles()
	if onHandoff != nil {
		onHandoff(t)
	}
	t.resume <- resumeMsg{}
}

// handOff gives the CPU away from a task whose slice has ended and been
// accounted: to next, or, when the loop is over, back to the entry point's
// caller with wake, the panic to re-raise there or nil.
func (s *Scheduler) handOff(next *Task, wake any) {
	if next != nil {
		s.resume(next)
		return
	}
	if onHandoff != nil {
		onHandoff(nil)
	}
	s.wake <- wake
}

// account ends the slice of t, the task holding the CPU: the cycles since
// its dispatch are t's, and a quantum expiry counts as a preemption.
func (s *Scheduler) account(t *Task, preempted bool) {
	s.current = nil
	t.cycles += s.clock.Cycles() - s.mark
	if preempted {
		t.m.Inc(metrics.CntSchedPreemptions)
	}
}

// next runs the dispatch loop on from a task whose slice has just been
// accounted, on that task's goroutine. A panic the loop raises there — a
// budget abort in the dispatch charge or in an idle poll, or a bug — is
// recovered and returned as wake, so it is re-raised on the entry point's
// caller as if the caller had run the loop, and the task stays parked until
// abortAll unwinds it in spawn order.
func (s *Scheduler) next() (t *Task, wake any) {
	defer func() {
		if r := recover(); r != nil {
			t, wake = nil, r
		}
	}()
	return s.dispatch(), nil
}

// park ends the slice of t, the task holding the CPU, on t's own goroutine:
// it parks t's execution stream, accounts the slice and runs the loop on. It
// returns when t is dispatched again — at once, with no goroutine switch,
// when the loop picks t next — with the stream restored, and unwinds t when
// it is aborted instead. idle marks a voluntary AEX of t's own enclave.
func (s *Scheduler) park(t *Task, idle, preempted bool) {
	t.idle = idle
	t.saved = s.cpu.SwapContext(sgx.ExecContext{})
	s.account(t, preempted)
	next, wake := s.next()
	if next == t {
		s.current, s.mark = t, s.clock.Cycles()
	} else {
		s.handOff(next, wake)
		if msg := <-t.resume; msg.abort {
			panic(abortUnwind{})
		}
	}
	s.cpu.SwapContext(t.saved)
}

// arm sets the one-shot quantum deadline of a dispatch handing over at
// cycle at, or clears it when there is no quantum. Overwriting also clears
// any stale deadline left by a slice that ended without firing it.
func (s *Scheduler) arm(at uint64) {
	if s.quantum > 0 {
		s.cpu.PreemptAt = at + s.quantum
	} else {
		s.cpu.PreemptAt = 0
	}
}

// pollIdle accounts in place the idle polls that the dispatch of t, just
// charged, starts. t's own poll comes first, as PollInPlace checks it on
// its own; when the kernel refuses it, pollIdle reports false, having
// charged nothing more, and the dispatch hands off. With rounds set the
// polls of the dispatches that would follow come with it: the rest of the
// k rounds idleRound finds. Each task's polls are one PollInPlace; the
// k·m-1 dispatches after t's are charged and counted together, every one
// a switch when the round has m > 1 tasks, and the last of them is the one
// the quantum is armed for.
func (s *Scheduler) pollIdle(t *Task, rounds bool) bool {
	at := s.clock.Cycles()
	if !s.pollInPlace(t, 1, at) {
		return false
	}
	if !rounds || singlePolls {
		return true
	}
	round, k, d := s.idleRound(t, at)
	rest := k*uint64(len(round)) - 1
	if rest == 0 {
		return true
	}
	for j, r := range round {
		n := k
		if j == 0 {
			n-- // t's first poll is charged
		}
		if n > 0 && !s.pollInPlace(r.task, n, r.at+(k-1)*d) {
			panic("sched: kernel refused idle polls it had accepted")
		}
		r.task.m.Add(metrics.CntSchedDispatches, n)
	}
	s.clock.ChargeAs(sim.CatFault, rest*s.costs.SchedDispatch)
	s.overhead += rest * s.costs.SchedDispatch
	if len(round) > 1 {
		s.m.Add(metrics.CntSchedSwitches, rest)
	}
	last := round[len(round)-1]
	s.last = last.task
	s.arm(last.at + (k-1)*d)
	if onIdleRounds != nil {
		onIdleRounds(k, len(round))
	}
	return true
}

// pollInPlace accounts u's next n idle polls, the last of them dispatched
// at cycle at, as u's own cycles.
func (s *Scheduler) pollInPlace(u *Task, n, at uint64) bool {
	mark := s.clock.Cycles()
	saved, ok := s.kernel.PollInPlace(u.proc, u.saved, n, at)
	if ok {
		u.saved = saved
		u.cycles += s.clock.Cycles() - mark
	}
	return ok
}

// idleRound finds the polls pollIdle accounts after t's first, which was
// dispatched at cycle at and has just been charged: k rounds of the
// returned tasks, t first, one round charging d.
//
// It follows the policy's picks from t until they return to t: the round.
// Every task of it must be parked in its loop's idle yield, with the kernel
// accepting its poll on every ground but the cycle (hostos.Kernel.
// IdleLoop), and its poll in the first round must be quiet at its cycle.
// The walk stops at the first poll that is not; the polls before it are
// then one partial round, exactly the single polls the next dispatches
// would account, so no probe query of the walk is wasted. When the round
// closes, k is the number of whole rounds in which every poll falls before
// its loop's QuietUntil, or one when every loop would stay quiet forever.
// Either way k is cut to the most rounds that fit under the clock's limit;
// when not even the first fits, only t's poll is accounted.
func (s *Scheduler) idleRound(t *Task, at uint64) (round []idler, k, d uint64) {
	round = append(s.round[:0], idler{task: t, at: at})
	resume, exit := s.kernel.InPlaceCycles()
	first := s.clock.Cycles() - at // t's poll, as charged
	d = first + s.costs.SchedDispatch
	u := s.policy.Pick(s.runnable, t)
	for u != t && len(round) < len(s.runnable) {
		var loop hostos.IdleProbe
		if u.idle {
			loop = s.kernel.IdleLoop(u.proc, u.saved)
		}
		if loop == nil {
			break
		}
		poll, quiet := loop.QuietAt(at + d + resume)
		if !quiet {
			break
		}
		round = append(round, idler{task: u, at: at + d, loop: loop})
		d += resume + poll + exit + s.costs.SchedDispatch
		u = s.policy.Pick(s.runnable, u)
	}
	s.round = round
	k = 1
	if u == t {
		round[0].loop = s.kernel.IdleLoop(t.proc, t.saved)
		k = math.MaxUint64
		for _, r := range round {
			if until := r.loop.QuietUntil(); until != math.MaxUint64 {
				n := uint64(1) // the first round, found quiet poll by poll
				if q := r.at + resume; until > q {
					n += (until - q - 1) / d
				}
				k = min(k, n)
			}
		}
		if k == math.MaxUint64 {
			k = 1
		}
	}
	// The rounds must fit under the clock's limit: k·d from t's dispatch,
	// of which t's poll and dispatch are charged. At most one round more
	// than room/d fits, and no more than the clock can count.
	k = min(k, s.clock.Room()/d+1, (math.MaxUint64-at)/d)
	if k*d-first-s.costs.SchedDispatch > s.clock.Room() {
		k--
	}
	if k == 0 {
		return round[:1], 1, d
	}
	return round, k, d
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
	s.park(t, false, false)
}

// Drive runs the dispatch loop until stop reports true, granting slices to
// every runnable task — the engine under a blocking client call: submit a
// request, then Drive until the correlated reply (or a connection reset)
// shows up. stop is evaluated before the first dispatch and after each
// one, on whichever goroutine holds the CPU: the caller's before the first
// real dispatch, afterwards that of the task whose slice has just ended.
// So it must not block, call back into the scheduler or depend on the
// goroutine it runs on; it may read the machine and record what it saw for
// the caller, which reads it after Drive returns. Drive returns ErrStalled
// if every task finishes while stop is still false; like Wait, it must not
// be called from inside a task.
func (s *Scheduler) Drive(stop func() bool) error {
	s.run("Drive", until{stop: stop})
	s.cpu.PreemptAt = 0
	if s.stalled {
		return ErrStalled
	}
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
	s.run("Drain", until{task: t, drain: true})
	s.cpu.PreemptAt = 0
	return t.err
}

// Step runs one dispatch if any task is runnable and reports whether it did.
// It is the fleet layer's building block: N machines share one clock, and
// round-robin Step calls interleave their dispatch loops deterministically
// without any machine monopolizing the timeline. Like Wait, it must not be
// called from inside a scheduled task.
func (s *Scheduler) Step() bool { return s.step(false) }

// step is Step; with rounds set, its one dispatch may account whole rounds
// of idle polls, as a dispatch under Wait does.
func (s *Scheduler) step(rounds bool) bool {
	s.run("Step", until{rounds: rounds})
	if !s.dispatched {
		s.cpu.PreemptAt = 0
		return false
	}
	return true
}

// OnPreempt implements hostos.Preemptor. It runs on the preempted task's
// goroutine, underneath the kernel's timer handler: it parks the execution
// stream, runs the dispatch loop on (see park), and returns only when the
// task is dispatched again, so the ERESUME the kernel issues next is the
// context-switch-in.
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
	// A cooperative Yield ends the slice without counting a preemption.
	s.park(t, voluntary && p != nil && p == t.proc, !voluntary)
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

// abortAll unwinds every parked task in spawn order, one at a time, so
// their deferred cleanups (clock category scopes, enclave-entry recovers)
// never run concurrently. Called only from an entry point's recover path;
// afterwards the machine is abandoned to the caller's panic.
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
// then account the final slice and run the dispatch loop on, as any task
// whose slice ends does. All panics from the body — enclave terminations
// escape as error returns before this point, so what reaches here is budget
// aborts and genuine bugs — wake the entry point's caller to re-raise them.
func (t *Task) main() {
	s := t.s
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
		s.account(t, false)
		s.handOff(nil, r)
	}()
	if msg := <-t.resume; msg.abort {
		return
	}
	t.err = t.run()
	t.done = true
	s.account(t, false)
	s.handOff(s.next())
}
