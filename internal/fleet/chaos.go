package fleet

import (
	"fmt"
	"sort"

	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// EventKind is one failure mode.
type EventKind int

const (
	// KindCrash crash-stops a machine: tasks killed, EPC lost, never back.
	KindCrash EventKind = iota
	// KindFreeze stops a machine's world for Dur cycles, then resumes it.
	KindFreeze
	// KindPartition severs the machine's tenants' service channels for Dur
	// cycles while the machine keeps running.
	KindPartition
)

// String names the kind for tables and errors.
func (k EventKind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindFreeze:
		return "freeze"
	case KindPartition:
		return "partition"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one planned failure.
type Event struct {
	At   uint64    // fleet-clock cycle at which the event fires
	Kind EventKind // what happens
	Node int       // victim, as an index into Fleet.Nodes()
	Dur  uint64    // freeze / partition length in cycles (unused for crashes)
}

// Schedule is an ordered list of planned failures plus the firing cursor.
// Build one from a Plan (seeded) or assemble Events by hand for targeted
// tests; either way, attach it to a fleet with Fleet.AttachChaos.
type Schedule struct {
	Events []Event
	next   int
}

// Fired reports how many events have been injected so far.
func (s *Schedule) Fired() int { return s.next }

// Plan is a seeded chaos recipe. Build expands it into a Schedule.
type Plan struct {
	Seed    uint64 // seeds every draw (event times, victims, order)
	Horizon uint64 // event times are drawn uniformly from [Horizon/8, Horizon)

	Crashes    int // crash-stop machine failures
	Freezes    int // stop-the-world freezes
	Partitions int // service-channel partitions

	FreezeCycles    uint64 // length of each freeze
	PartitionCycles uint64 // length of each partition

	// MinAlive caps the crashes: at least this many machines are never
	// crash targets, so the fleet always has somewhere to fail over to.
	// 0 means 1.
	MinAlive int
}

// Build expands the plan into a concrete event schedule for a fleet of
// `nodes` machines. Crash victims are distinct machines, never more than
// nodes-MinAlive of them; freeze and partition victims may repeat. Events
// are ordered by (At, Kind, Node) so firing order is unambiguous.
func (p Plan) Build(nodes int) (*Schedule, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("fleet: chaos plan for %d nodes", nodes)
	}
	if p.Horizon == 0 {
		return nil, fmt.Errorf("fleet: chaos plan without a horizon")
	}
	minAlive := p.MinAlive
	if minAlive < 1 {
		minAlive = 1
	}
	if p.Crashes > nodes-minAlive {
		return nil, fmt.Errorf("fleet: %d crashes would leave fewer than %d of %d machines alive",
			p.Crashes, minAlive, nodes)
	}
	r := sim.NewRand(p.Seed)
	at := func() uint64 { return p.Horizon/8 + r.Uint64n(p.Horizon-p.Horizon/8) }
	var events []Event
	// Crash victims are a seeded permutation prefix: distinct machines.
	perm := r.Perm(nodes)
	for i := 0; i < p.Crashes; i++ {
		events = append(events, Event{At: at(), Kind: KindCrash, Node: perm[i]})
	}
	for i := 0; i < p.Freezes; i++ {
		events = append(events, Event{At: at(), Kind: KindFreeze, Node: r.Intn(nodes), Dur: p.FreezeCycles})
	}
	for i := 0; i < p.Partitions; i++ {
		events = append(events, Event{At: at(), Kind: KindPartition, Node: r.Intn(nodes), Dur: p.PartitionCycles})
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Node < b.Node
	})
	return &Schedule{Events: events}, nil
}

// fireDue injects every event whose cycle has come. A partition lasts
// until now+Dur.
func (s *Schedule) fireDue(f *Fleet, now uint64) {
	for s.next < len(s.Events) && s.Events[s.next].At <= now {
		ev := s.Events[s.next]
		s.next++
		n := f.nodes[ev.Node]
		switch ev.Kind {
		case KindCrash:
			f.injectCrash(n)
		case KindFreeze:
			f.injectFreeze(n, ev.Dur)
		case KindPartition:
			f.injectPartition(n, now+ev.Dur)
		}
	}
}

// mark is the supervisor's belief about one machine — derived exclusively
// from heartbeats, never from Node.state.
type mark int

const (
	markOK      mark = iota
	markSuspect      // missed a watchdog deadline; cordoned
	markDead         // silent for a second deadline; failed over
	markFenced       // spoke again after suspicion; evacuated and fenced
)

// Supervisor is the fleet's failure detector and healer. It is blind to
// ground truth: it reads each node's last heartbeat, its own marks, and
// whether a down tenant has a checkpoint to restore from — never
// Node.state. Zero values take defaults at AttachChaos: HeartbeatEvery 1/4
// of Deadline, Deadline required.
type Supervisor struct {
	// HeartbeatEvery is the beat-and-sweep cadence in cycles.
	HeartbeatEvery uint64
	// Deadline is the watchdog: a machine silent for more than this many
	// cycles becomes suspect; a suspect silent for a second deadline is
	// declared dead.
	Deadline uint64

	nextAct     uint64
	marks       []mark
	suspectedAt []uint64
}

// tick runs one supervision step when due: publish heartbeats, charge the
// watchdog sweep, and act on what the beats say.
func (s *Supervisor) tick(f *Fleet, now uint64) error {
	if now < s.nextAct {
		return nil
	}
	for s.nextAct <= now {
		s.nextAct += s.HeartbeatEvery
	}
	f.heartbeat()
	f.clock.ChargeAs(sim.CatPolicy, f.nodes[0].Kernel.Costs.FleetWatchdog)
	for i, n := range f.nodes {
		switch s.marks[i] {
		case markOK:
			if now-n.lastBeat > s.Deadline {
				s.marks[i] = markSuspect
				s.suspectedAt[i] = now
				n.cordoned = true
				f.m.Inc(metrics.CntChaosHeartbeatMiss)
			}
		case markSuspect:
			if n.lastBeat >= s.suspectedAt[i] {
				// The machine spoke again: it was frozen, not dead. Its
				// state survived, so evacuate through live migration and
				// fence it.
				if _, err := f.evacuate(n); err != nil {
					return err
				}
				s.marks[i] = markFenced
			} else if now-s.suspectedAt[i] > s.Deadline {
				// Silent for a second full deadline: declared dead. Restore
				// its tenants from their checkpoints onto the survivors.
				f.m.Inc(metrics.CntChaosHeartbeatMiss)
				if err := f.failOver(n); err != nil {
					return err
				}
				s.marks[i] = markDead
			}
		}
	}
	return nil
}

// pendingWake reports the next cycle at which the supervisor has work that
// must run even if the whole fleet is idle: a suspect to re-examine, or a
// downed-but-recoverable tenant whose machine has not been declared dead
// yet. Routine heartbeating alone never keeps an otherwise-finished fleet
// alive.
func (s *Supervisor) pendingWake(f *Fleet) (uint64, bool) {
	for _, m := range s.marks {
		if m == markSuspect {
			return s.nextAct, true
		}
	}
	for _, t := range f.tenants {
		if !t.down || t.cp == nil {
			continue
		}
		for i, n := range f.nodes {
			if n != t.node {
				continue
			}
			if s.marks[i] == markOK {
				// Recoverable and down, and the watchdog has not even
				// suspected the machine yet: it must get its chance. (A
				// dead or fenced machine was already handled — a tenant
				// still down there was shed, and waking will not help it.)
				return s.nextAct, true
			}
		}
	}
	return 0, false
}

// AttachChaos arms the fleet's Run loop with a failure schedule and
// (optionally) a supervisor: each round, after thawing, Run fires the
// events that came due and then ticks the supervisor, and an idle fleet
// wakes for the next event or the supervisor's pending deadline. sched may
// be nil (supervision without injection); sup may be nil (injection
// without supervision — the no-supervisor baseline). AttachChaos must run
// before Run and requires at least one node.
func (f *Fleet) AttachChaos(sched *Schedule, sup *Supervisor) error {
	if len(f.nodes) == 0 {
		return fmt.Errorf("fleet: attach chaos to a fleet with no nodes")
	}
	if sched != nil {
		for _, ev := range sched.Events {
			if ev.Node < 0 || ev.Node >= len(f.nodes) {
				return fmt.Errorf("fleet: chaos event targets node %d of %d", ev.Node, len(f.nodes))
			}
		}
	}
	if sup != nil {
		if sup.Deadline == 0 {
			return fmt.Errorf("fleet: supervisor without a watchdog deadline")
		}
		if sup.HeartbeatEvery == 0 {
			sup.HeartbeatEvery = sup.Deadline / 4
			if sup.HeartbeatEvery == 0 {
				sup.HeartbeatEvery = 1
			}
		}
		sup.marks = make([]mark, len(f.nodes))
		sup.suspectedAt = make([]uint64, len(f.nodes))
	}
	f.chaos, f.sup = sched, sup
	return nil
}
