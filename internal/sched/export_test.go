package sched

// ForceRealPolls makes every dispatch resume its task, so a test can
// run a scenario with and without in-place idle polls and compare the two.
// It returns a function restoring the previous setting.
func ForceRealPolls(on bool) (restore func()) {
	prev := forceRealPolls
	forceRealPolls = on
	return func() { forceRealPolls = prev }
}

// SinglePolls makes every in-place idle poll its own dispatch, so a test
// can run a scenario with and without whole idle rounds and compare the
// two. It returns a function restoring the previous setting.
func SinglePolls(on bool) (restore func()) {
	prev := singlePolls
	singlePolls = on
	return func() { singlePolls = prev }
}

// IdleRounds is what CountIdleRounds saw: the batches of whole idle rounds
// accounted, the polls they covered, and the fewest and most tasks a round
// held.
type IdleRounds struct {
	Batches, Polls     uint64
	MinTasks, MaxTasks int
}

// CountIdleRounds counts the batches of whole idle rounds every scheduler
// accounts from now on, until restore.
func CountIdleRounds() (count func() IdleRounds, restore func()) {
	var seen IdleRounds
	prev := onIdleRounds
	onIdleRounds = func(rounds uint64, tasks int) {
		if seen.Batches == 0 || tasks < seen.MinTasks {
			seen.MinTasks = tasks
		}
		seen.MaxTasks = max(seen.MaxTasks, tasks)
		seen.Batches++
		seen.Polls += rounds * uint64(tasks)
		if prev != nil {
			prev(rounds, tasks)
		}
	}
	return func() IdleRounds { return seen }, func() { onIdleRounds = prev }
}

// WaitStep runs one dispatch as Wait runs it, whole idle rounds included.
func (s *Scheduler) WaitStep() bool { return s.step(true) }

// Exited reports whether t's coroutine has finished: t is done, and its body
// has returned or never started.
func (t *Task) Exited() bool { return t.done && t.yield == nil }

// Handoffs is what CountHandoffs saw: the coroutine resumes that handed the
// CPU to a task, in all and by task ID.
type Handoffs struct {
	ToTask uint64
	ByTask []uint64
}

// CountHandoffs counts the coroutine resumes every scheduler makes from now
// on, until restore.
func CountHandoffs() (count func() Handoffs, restore func()) {
	var seen Handoffs
	prev := onResume
	onResume = func(t *Task) {
		for len(seen.ByTask) <= t.id {
			seen.ByTask = append(seen.ByTask, 0)
		}
		seen.ByTask[t.id]++
		seen.ToTask++
	}
	return func() Handoffs { return seen }, func() { onResume = prev }
}
