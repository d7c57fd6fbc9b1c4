package sched

// ForceRealPolls makes every dispatch hand off to its task, so a test can
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

// Exited reports whether t's goroutine has returned.
func (t *Task) Exited() bool {
	select {
	case <-t.exited:
		return true
	default:
		return false
	}
}

// Handoffs is what CountHandoffs saw: the goroutine switches that handed the
// CPU to a task, and those that woke an entry point's caller.
type Handoffs struct{ ToTask, ToCaller uint64 }

// CountHandoffs counts the handoffs every scheduler makes from now on, until
// restore.
func CountHandoffs() (count func() Handoffs, restore func()) {
	var seen Handoffs
	prev := onHandoff
	onHandoff = func(to *Task) {
		if to == nil {
			seen.ToCaller++
		} else {
			seen.ToTask++
		}
	}
	return func() Handoffs { return seen }, func() { onHandoff = prev }
}
