package sched

import "fmt"

// PolicyKind selects a built-in scheduling policy by name (the form the
// public facade's WithScheduler option takes).
type PolicyKind int

// Built-in policies.
const (
	// RoundRobin cycles through runnable processes in spawn order.
	RoundRobin PolicyKind = iota
	// Priority always runs the runnable process with the highest priority
	// value; ties rotate round-robin within the top priority class.
	Priority
)

// String names the policy kind.
func (k PolicyKind) String() string {
	switch k {
	case RoundRobin:
		return "round-robin"
	case Priority:
		return "priority"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Policy decides which runnable task receives the next quantum. Pick must
// be a deterministic function of its arguments: the same (runnable, prev)
// must yield the same choice on every call. The scheduler's determinism
// contract depends on it, and so does Wait, which follows a policy's picks
// ahead of dispatching them to find a round of idle tasks (see step).
type Policy interface {
	// Pick returns the next task to dispatch. runnable is non-empty and in
	// spawn order; prev is the task that held the previous quantum (nil on
	// the first dispatch, possibly no longer runnable). The runnable slice
	// is scheduler-owned scratch, reused across dispatches: a policy must
	// not retain it after Pick returns.
	Pick(runnable []*Task, prev *Task) *Task
}

// NewPolicy constructs a built-in policy. Unknown kinds return an error the
// facade surfaces as a configuration rejection.
func NewPolicy(kind PolicyKind) (Policy, error) {
	switch kind {
	case RoundRobin:
		return NewRoundRobin(), nil
	case Priority:
		return NewPriority(), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy kind %d", int(kind))
	}
}

// roundRobin dispatches the first runnable task spawned after the previous
// holder, wrapping around — classic round-robin over spawn order.
type roundRobin struct{}

// NewRoundRobin returns the round-robin policy.
func NewRoundRobin() Policy { return roundRobin{} }

func (roundRobin) Pick(runnable []*Task, prev *Task) *Task {
	return nextAfter(runnable, prev)
}

// priority dispatches within the highest-priority class of runnable tasks,
// rotating round-robin inside the class. Lower classes run only when every
// higher class is done — deterministic starvation is the documented
// semantics, not a bug.
type priority struct{}

// NewPriority returns the strict-priority policy.
func NewPriority() Policy { return priority{} }

// Pick makes nextAfter's choice within the top class without building it:
// the first top-priority task whose ID follows prev's, or else the first
// top-priority task.
func (priority) Pick(runnable []*Task, prev *Task) *Task {
	top := runnable[0].Priority()
	for _, t := range runnable[1:] {
		top = max(top, t.Priority())
	}
	var first *Task
	for _, t := range runnable {
		if t.Priority() != top {
			continue
		}
		if prev == nil || t.ID() > prev.ID() {
			return t
		}
		if first == nil {
			first = t
		}
	}
	return first
}

// nextAfter returns the first task in the (spawn-ordered) candidate list
// whose ID follows prev's, wrapping to the front; with no previous holder
// it returns the first candidate.
func nextAfter(cands []*Task, prev *Task) *Task {
	if prev == nil {
		return cands[0]
	}
	for _, t := range cands {
		if t.ID() > prev.ID() {
			return t
		}
	}
	return cands[0]
}
