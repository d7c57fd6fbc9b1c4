package sched

// ForceRealPolls makes every dispatch hand off to its task, so a test can
// run a scenario with and without in-place idle polls and compare the two.
// It returns a function restoring the previous setting.
func ForceRealPolls(on bool) (restore func()) {
	prev := forceRealPolls
	forceRealPolls = on
	return func() { forceRealPolls = prev }
}
