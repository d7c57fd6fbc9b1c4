// Package fleet runs N simulated Autarky machines under one logical clock
// and moves enclave tenants between them with live migration.
//
// # Model
//
// A Fleet owns one sim.Clock; every Node (a full machine: CPU, EPC, MMU,
// host kernel, scheduler) is wired to that clock, so cycles charged anywhere
// in the fleet advance the one shared timeline and the per-category
// attribution invariant (sum of buckets == clock cycles) keeps holding
// fleet-wide. The Run loop interleaves the nodes' dispatch loops by calling
// sched.Scheduler.Step round-robin: each node grants at most one quantum per
// round, so no machine monopolizes the timeline and the interleaving is a
// pure function of the policies and the cost model — byte-deterministic at
// any host worker count.
//
// # Tenants and migration
//
// A Tenant is one enclave application plus the hooks the fleet needs to
// restart it on another machine: Prepare wires handlers and frontends onto a
// fresh incarnation, Body runs it under the node scheduler, Pause stops new
// work so the body returns once its backlog drains; Tenant.Serve installs
// all three for a request server that outlives its incarnations. Migration
// is the quiesce→seal→transfer→verify→resume handshake: Pause, then
// sched.Scheduler.Drain (only the leaving task is dispatched until it
// returns), then libos.Process.Migrate seals the enclave under the source
// identity and retires it, libos.Adopt rebuilds it on the destination —
// re-clustering and re-sealing every page under the destination's cost
// model and backend stack — and the tenant is respawned there. The cycles
// between Pause and respawn are the migration downtime; they are charged on
// the shared clock like any other work and recorded per move.
//
// # Placement
//
// A Policy picks the node for each admission and proposes rebalancing moves
// from EPC-occupancy snapshots; see FirstFit and Watermark. Policy scans are
// charged to the policy category (sim.Costs.FleetScan per node scanned), so
// elasticity has a visible price in the attribution vector.
//
// # Failure injection
//
// A Plan is a seeded recipe — so many crashes, freezes and partitions spread
// over a cycle horizon — that Build expands into a concrete Schedule using
// sim.Rand. Every draw comes from the seed, so the event list (and therefore
// the whole chaos run) is byte-identical at any worker count. Run fires each
// event as its cycle comes: a crash kills a machine's tasks and loses its
// EPC for good, a freeze stops its world for a fixed number of cycles, a
// partition severs its tenants' service channels while the machine keeps
// running.
//
// # Supervision
//
// The Supervisor is deliberately blind to ground truth: it publishes
// heartbeats on a fixed cadence and judges a machine by nothing but its
// last-beat cycle. A node silent past the watchdog deadline becomes suspect
// and is cordoned — no new placements onto a machine that may be dead. A
// suspect that beats again was merely frozen or partitioned from the
// supervisor: its tenants are evacuated through the ordinary Quiesce/Adopt
// migration path and the machine is fenced (a host that went silent once is
// not trusted again). A suspect silent for a second full deadline is declared
// dead: its tenants are restored from their latest periodic checkpoints onto
// surviving machines, highest priority first, and whatever the survivors
// cannot hold is shed. Run ticks the supervisor right after firing the due
// events; every supervision step — beats, watchdog sweeps — is charged to the
// policy category, so self-healing has a visible price in the attribution
// vector.
package fleet

import (
	"errors"
	"fmt"

	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sched"
	"autarky/internal/service"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// fleetRootSecret seals migration envelopes; sharing it across the fleet's
// CPUs models the provisioned migration key of the paper's counter-service
// design — only machines of the same fleet can open each other's envelopes.
var fleetRootSecret = []byte("autarky-fleet-root")

// Chaos outcome sentinels. Both mark tenants the fleet could not keep
// running; Run does not treat either as a fleet failure (the caller reads
// them off Tenant.Err), so an experiment can finish and account the damage.
var (
	// ErrCrashed marks a tenant taken down by a machine crash and never
	// recovered: no supervisor was watching, or no checkpoint existed to
	// restore from.
	ErrCrashed = errors.New("fleet: tenant lost in machine crash")
	// ErrShed marks a tenant the supervisor dropped because surviving EPC
	// capacity could not hold it. It is ErrQuotaExceeded-family: to the
	// caller, being shed for fleet capacity and being refused for enclave
	// quota are the same class of resource exhaustion.
	ErrShed = fmt.Errorf("fleet: tenant shed for surviving capacity: %w", libos.ErrQuotaExceeded)
	// ErrHeartbeatMissed is what a watchdog probe of a silent machine
	// surfaces. The fleet's own supervisor observes silence as the absence
	// of beats rather than an error; the sentinel gives detection edges a
	// nameable outcome for the orderliness model and tests.
	ErrHeartbeatMissed = errors.New("fleet: heartbeat missed")
)

// NodeState is a machine's health, as the hardware actually is — failure
// detection (the Supervisor's watchdog) works only from heartbeats and
// never reads this directly.
type NodeState int

const (
	// NodeHealthy machines step their dispatch loop and heartbeat.
	NodeHealthy NodeState = iota
	// NodeFrozen machines are stopped-the-world until their thaw cycle:
	// no dispatch, no heartbeat, tasks parked exactly where they were.
	NodeFrozen
	// NodeCrashed machines are gone for good: their tasks were killed and
	// their EPC contents are lost. They never step or beat again.
	NodeCrashed
	// NodeFenced machines were evacuated after a suspected failure and
	// removed from service: alive but never stepped or placed on again.
	NodeFenced
)

// String names the state for tables and errors.
func (s NodeState) String() string {
	switch s {
	case NodeHealthy:
		return "healthy"
	case NodeFrozen:
		return "frozen"
	case NodeCrashed:
		return "crashed"
	case NodeFenced:
		return "fenced"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Node is one simulated machine of the fleet: a complete host (CPU, EPC,
// page tables, kernel, paging backends) plus its dispatch loop. All nodes
// share the fleet's clock; each has its own cost model (Kernel.Costs), so a
// fleet can be heterogeneous in both EPC geometry and cycle costs.
type Node struct {
	Name   string
	Kernel *hostos.Kernel
	Sched  *sched.Scheduler

	state       NodeState
	frozenUntil uint64 // thaw cycle while state == NodeFrozen
	frozeAt     uint64 // freeze start, for downtime accounting
	cordoned    bool   // supervisor: no new placements (suspect or fenced)
	lastBeat    uint64 // cycle of the last heartbeat: all the watchdog reads
}

// State reports the node's health.
func (n *Node) State() NodeState { return n.state }

// Accepting reports whether placement may choose this node: it must be
// healthy and not cordoned.
func (n *Node) Accepting() bool { return n.state == NodeHealthy && !n.cordoned }

// FreeFrames reports the node's free physical EPC frames.
func (n *Node) FreeFrames() int { return n.Kernel.CPU.EPC.FreeFrames() }

// EPCFrames reports the node's total physical EPC frames.
func (n *Node) EPCFrames() int { return n.Kernel.CPU.EPC.NumFrames() }

// Occupancy is the fraction of EPC frames in use — the pressure signal
// placement policies act on.
func (n *Node) Occupancy() float64 {
	total := n.Kernel.CPU.EPC.NumFrames()
	if total == 0 {
		return 0
	}
	return float64(total-n.Kernel.CPU.EPC.FreeFrames()) / float64(total)
}

// Tenant is one enclave application under fleet management. Name must be
// unique within the fleet (it keys the cross-machine cycle account). The
// three hooks receive the tenant itself, so one closure-free struct can be
// shared between incarnations.
type Tenant struct {
	Name   string
	Image  libos.AppImage
	Config libos.Config

	// AdmitAfter delays admission until the fleet clock reaches this cycle
	// (tenant churn: the fleet idles forward when nothing else is runnable).
	AdmitAfter uint64

	// Prepare wires application state onto an incarnation: register
	// handlers, and on first=false rebind whatever outlives the enclave.
	// Serve installs the serving tenant's version of all three hooks.
	Prepare func(t *Tenant, p *libos.Process, first bool) error
	// Body runs the incarnation under the node scheduler. A tenant whose
	// body returns outside a migration drain is finished and is not
	// respawned.
	Body func(t *Tenant, p *libos.Process) error
	// Pause stops new work admission so Body returns once the in-flight
	// backlog drains. Tenants without a Pause hook cannot be migrated while
	// running.
	Pause func(t *Tenant)

	srv        *service.Server // set by a Serve tenant's first Prepare
	node       *Node
	proc       *libos.Process
	task       *sched.Task
	admitted   bool
	cycles     uint64
	migrations int
	lastMove   int
	err        error

	cp        *libos.Checkpoint // latest periodic checkpoint
	cpAt      uint64            // cycle it was taken
	down      bool              // taken out by a machine failure, not yet recovered
	downSince uint64            // cycle the failure hit
}

// Node returns the machine currently hosting the tenant (nil before
// admission).
func (t *Tenant) Node() *Node { return t.node }

// Proc returns the tenant's current incarnation (nil before admission).
func (t *Tenant) Proc() *libos.Process { return t.proc }

// Migrations reports how many times the tenant has moved.
func (t *Tenant) Migrations() int { return t.migrations }

// Err returns the first error any incarnation's body returned, or a chaos
// outcome sentinel (ErrCrashed, ErrShed) for tenants the fleet lost.
func (t *Tenant) Err() error { return t.err }

// Cycles is the tenant's total machine-clock share: scheduler-attributed
// cycles accumulated across every incarnation on every node.
func (t *Tenant) Cycles() uint64 {
	c := t.cycles
	if t.task != nil {
		c += t.task.Metrics().Cycles
	}
	return c
}

// footprint estimates the tenant's EPC demand in frames: its residency
// quota when self-paging bounds it, otherwise the full image.
func (t *Tenant) footprint() int {
	if q := t.Config.QuotaPages; q > 0 {
		return q
	}
	return t.Image.LoadedPages()
}

// movable reports whether the rebalancer may pick the tenant: it must be
// running and pausable, i.e. mid-incarnation with a quiesce hook.
func (t *Tenant) movable() bool {
	return t.task != nil && !t.task.Done() && t.Pause != nil
}

// Stats is the fleet's elasticity and availability account.
type Stats struct {
	Migrations     int    // completed tenant moves
	Rebalances     int    // policy scans that produced at least one move
	DowntimeCycles uint64 // total cycles tenants spent paused mid-move

	// Chaos: injected failures and what healing cost.
	Failures         int    // machine failures injected (crashes, freezes, partitions)
	HeartbeatsMissed int    // watchdog deadlines a node's heartbeat missed
	Failovers        int    // tenants evacuated off a suspect machine via Quiesce/Adopt
	Restarts         int    // tenants restarted from a periodic checkpoint
	Shed             int    // tenants dropped for lack of surviving EPC capacity
	FailureDowntime  uint64 // cycles tenants spent down from machine failures, summed
	LostRequests     uint64 // admitted requests lost to machine crashes
	RecoveryPointAge uint64 // checkpoint age at each failure recovered from, summed
}

// Fleet is N machines, their tenants, and the placement policy that binds
// them. Create with New, add nodes and tenants, then Run.
type Fleet struct {
	// Counters is the fleet's migration counter service (the paper's
	// monotonic-counter freshness authority): every adoption is checked and
	// committed against it, so a replayed envelope is rejected fleet-wide.
	Counters *sgx.CounterService

	// RebalanceEvery invokes the policy's rebalance scan every that many
	// scheduling rounds (0 disables rebalancing).
	RebalanceEvery int

	// CheckpointEvery takes a periodic checkpoint of every running tenant
	// every that many scheduling rounds (0 disables checkpointing). The
	// checkpoint is the supervisor's recovery point after a machine crash;
	// its capture cost is charged on the shared clock like any other work.
	CheckpointEvery int

	// OnMigrate, when set, observes every completed move (after the tenant
	// is respawned on its destination).
	OnMigrate func(t *Tenant, from, to *Node)

	chaos   *Schedule   // failures Run fires as they come due (AttachChaos)
	sup     *Supervisor // heartbeat watchdog Run ticks each round (AttachChaos)
	clock   *sim.Clock
	m       *metrics.Metrics
	policy  Policy
	quantum uint64
	nodes   []*Node
	tenants []*Tenant
	round   int
	placed  int
}

// New builds an empty fleet on the given clock. policy nil means FirstFit;
// quantum 0 means sched.DefaultQuantum.
func New(clock *sim.Clock, policy Policy, quantum uint64) *Fleet {
	if policy == nil {
		policy = FirstFit{}
	}
	if quantum == 0 {
		quantum = sched.DefaultQuantum
	}
	return &Fleet{
		Counters: sgx.NewCounterService(),
		clock:    clock,
		m:        metrics.Of(clock),
		policy:   policy,
		quantum:  quantum,
	}
}

// Clock returns the fleet's shared clock.
func (f *Fleet) Clock() *sim.Clock { return f.clock }

// Round reports the current scheduling round (one Step per node each).
func (f *Fleet) Round() int { return f.round }

// Stats returns the elasticity account so far, read from the fleet clock's
// metrics registry. The fleet adopts only inside Migrate, so the clock's
// adopts are its completed moves.
func (f *Fleet) Stats() Stats {
	c := f.m.Count
	return Stats{
		Migrations:       int(c(metrics.CntAdopts)),
		Rebalances:       int(c(metrics.CntFleetRebalances)),
		DowntimeCycles:   c(metrics.CntMigrationDowntime),
		Failures:         int(c(metrics.CntChaosFailures)),
		HeartbeatsMissed: int(c(metrics.CntChaosHeartbeatMiss)),
		Failovers:        int(c(metrics.CntChaosFailovers)),
		Restarts:         int(c(metrics.CntChaosRestarts)),
		Shed:             int(c(metrics.CntChaosShed)),
		FailureDowntime:  c(metrics.CntChaosDowntime),
		LostRequests:     c(metrics.CntChaosLostRequests),
		RecoveryPointAge: c(metrics.CntChaosRPAge),
	}
}

// Nodes returns the fleet's machines in creation order.
func (f *Fleet) Nodes() []*Node {
	out := make([]*Node, len(f.nodes))
	copy(out, f.nodes)
	return out
}

// Tenants returns the fleet's tenants in registration order.
func (f *Fleet) Tenants() []*Tenant {
	out := make([]*Tenant, len(f.tenants))
	copy(out, f.tenants)
	return out
}

// AddNode builds a complete machine on the fleet clock and registers it.
// Each node takes its own copy of costs, so heterogeneous cost models are
// per-node; epcFrames sets the node's physical EPC geometry.
func (f *Fleet) AddNode(name string, epcFrames int, costs sim.Costs) *Node {
	k := hostos.NewHost(f.clock, costs, hostos.DefaultGeometry(epcFrames), fleetRootSecret)
	n := &Node{Name: name, Kernel: k, Sched: sched.New(k, nil, f.quantum)}
	f.nodes = append(f.nodes, n)
	return n
}

// Add registers a tenant for admission (at AdmitAfter, by the policy).
func (f *Fleet) Add(t *Tenant) { f.tenants = append(f.tenants, t) }

// validate rejects fleets that cannot run.
func (f *Fleet) validate() error {
	if len(f.nodes) == 0 {
		return errors.New("fleet: no nodes")
	}
	seen := make(map[string]bool, len(f.tenants))
	for _, t := range f.tenants {
		if t.Name == "" || seen[t.Name] {
			return fmt.Errorf("fleet: tenant name %q empty or duplicate", t.Name)
		}
		seen[t.Name] = true
		if t.Body == nil {
			return fmt.Errorf("fleet: tenant %s has no body", t.Name)
		}
	}
	return nil
}

// start binds an incarnation to its node, runs the tenant's Prepare hook
// (first on admission) and spawns the incarnation under the node's
// scheduler.
func (f *Fleet) start(t *Tenant, node *Node, p *libos.Process, first bool) error {
	t.node, t.proc = node, p
	if t.Prepare != nil {
		if err := t.Prepare(t, p, first); err != nil {
			return fmt.Errorf("fleet: prepare %s on %s: %w", t.Name, node.Name, err)
		}
	}
	t.task = node.Sched.Spawn(t.Name, t.Config.Priority, p.Proc, func() error {
		return t.Body(t, p)
	})
	return nil
}

// stop kills a tenant's running incarnation where it stands and folds its
// cycle account. A serving tenant's server books every admitted-but-unserved
// request as lost, resets its connections and stays rebindable.
func (f *Fleet) stop(t *Tenant) {
	t.node.Sched.Kill(t.task, ErrCrashed)
	f.collect(t)
	if t.srv != nil {
		f.m.Add(metrics.CntChaosLostRequests, t.srv.Crash())
	}
}

// collect folds a finished (or drained) task's cycle account into the
// tenant and releases the task slot. ErrCrashed marks a crash-stop kill,
// not a body failure: the tenant may yet be recovered, so it is not folded
// into the tenant's error (Run finalizes it for tenants still down).
func (f *Fleet) collect(t *Tenant) {
	if t.task == nil {
		return
	}
	t.cycles += t.task.Metrics().Cycles
	if err := t.task.Err(); err != nil && t.err == nil && !errors.Is(err, ErrCrashed) {
		t.err = err
	}
	t.task = nil
}

// admit places and loads a tenant's first incarnation. Every tenant gets a
// fleet-unique ELRANGE base: the base travels inside the migration image,
// so it must stay collision-free on whichever node the tenant lands later.
func (f *Fleet) admit(t *Tenant) error {
	node := f.policy.Place(f, t)
	if node == nil {
		return fmt.Errorf("fleet: no node fits tenant %s (%d pages)", t.Name, t.footprint())
	}
	cfg := t.Config
	if cfg.Base == 0 {
		cfg.Base = libos.DefaultBase + mmu.VAddr(uint64(f.placed)<<32)
	}
	f.placed++
	p, err := libos.Load(node.Kernel, t.Image, cfg)
	if err != nil {
		return fmt.Errorf("fleet: load tenant %s on %s: %w", t.Name, node.Name, err)
	}
	t.Config = cfg
	if err := f.start(t, node, p, true); err != nil {
		return err
	}
	t.admitted = true
	return nil
}

// Migrate live-migrates a tenant to another node: pause, drain, seal,
// adopt, re-prepare, respawn. The cycles from pause to respawn are the
// migration's downtime.
func (f *Fleet) Migrate(t *Tenant, to *Node) error {
	if t.node == nil || t.proc == nil {
		return fmt.Errorf("fleet: migrate %s: not admitted", t.Name)
	}
	if to == t.node {
		return fmt.Errorf("fleet: migrate %s: already on %s", t.Name, to.Name)
	}
	if t.node.state != NodeHealthy {
		return fmt.Errorf("fleet: migrate %s: source %s is %s", t.Name, t.node.Name, t.node.state)
	}
	if to.state != NodeHealthy {
		return fmt.Errorf("fleet: migrate %s: destination %s is %s", t.Name, to.Name, to.state)
	}
	from := t.node
	start := f.clock.Cycles()
	if t.task != nil && !t.task.Done() {
		if t.Pause == nil {
			return fmt.Errorf("fleet: migrate %s: tenant has no pause hook", t.Name)
		}
		t.Pause(t)
		if err := from.Sched.Drain(t.task); err != nil {
			return fmt.Errorf("fleet: migrate %s: drain: %w", t.Name, err)
		}
	}
	f.collect(t)
	mig, err := t.proc.Migrate()
	if err != nil {
		return fmt.Errorf("fleet: migrate %s off %s: %w", t.Name, from.Name, err)
	}
	p2, err := libos.Adopt(to.Kernel, mig, f.Counters)
	if err != nil {
		return fmt.Errorf("fleet: adopt %s on %s: %w", t.Name, to.Name, err)
	}
	if err := f.start(t, to, p2, false); err != nil {
		return err
	}
	t.migrations++
	t.lastMove = f.round
	f.m.Add(metrics.CntMigrationDowntime, f.clock.Cycles()-start)
	if f.OnMigrate != nil {
		f.OnMigrate(t, from, to)
	}
	return nil
}

// Rebalance runs one policy scan and executes the proposed moves, charging
// the scan to the policy category. It reports how many tenants moved.
func (f *Fleet) Rebalance() (int, error) {
	for _, n := range f.nodes {
		f.clock.ChargeAs(sim.CatPolicy, n.Kernel.Costs.FleetScan)
	}
	moves := f.policy.Rebalance(f)
	moved := 0
	for _, mv := range moves {
		if mv.Tenant == nil || mv.To == nil || !mv.Tenant.movable() {
			continue
		}
		if err := f.Migrate(mv.Tenant, mv.To); err != nil {
			return moved, err
		}
		moved++
	}
	if moved > 0 {
		f.m.Inc(metrics.CntFleetRebalances)
	}
	return moved, nil
}

// injectCrash crash-stops a machine: its tasks are killed where they stand
// (mid-quantum work abandoned, exactly as a power loss would), its EPC
// contents are lost for good, and it never steps or heartbeats again. Each
// hosted serving tenant's server accounts the requests the crash lost; the
// tenant is marked down until (and unless) a supervisor recovers it from a
// checkpoint. Injecting a crash into an already-crashed machine is a no-op.
func (f *Fleet) injectCrash(n *Node) {
	if n.state == NodeCrashed {
		return
	}
	now := f.clock.Cycles()
	n.state = NodeCrashed
	n.cordoned = true
	f.m.Inc(metrics.CntChaosFailures)
	for _, t := range f.tenants {
		if t.node != n || t.task == nil || t.task.Done() {
			continue
		}
		f.stop(t)
		t.proc = nil // the enclave died with the machine
		t.down = true
		t.downSince = now
	}
}

// injectFreeze stops a machine's world for the given number of cycles: no
// dispatch, no heartbeat, tasks parked exactly where they were. The machine
// thaws by itself when the fleet clock reaches the deadline; the freeze is
// charged to each hosted tenant's failure downtime at thaw. Freezing a
// crashed or already-frozen machine is a no-op.
func (f *Fleet) injectFreeze(n *Node, cycles uint64) {
	if n.state != NodeHealthy {
		return
	}
	now := f.clock.Cycles()
	n.state = NodeFrozen
	n.frozeAt = now
	n.frozenUntil = now + cycles
	f.m.Inc(metrics.CntChaosFailures)
}

// injectPartition severs the service channels of every tenant on a machine
// until the given absolute cycle: their in-flight requests and replies are
// lost in transit (clients see ErrConnReset) while the machine itself keeps
// running and heartbeating — the classic partition the watchdog must NOT
// confuse with a crash. Tenants without a server are unaffected.
func (f *Fleet) injectPartition(n *Node, until uint64) {
	if n.state == NodeCrashed || n.state == NodeFenced {
		return
	}
	f.m.Inc(metrics.CntChaosFailures)
	for _, t := range f.tenants {
		if t.node == n && t.srv != nil {
			t.srv.Partition(until)
		}
	}
}

// heartbeat publishes a heartbeat from every machine able to speak — the
// healthy ones, including cordoned suspects that turned out to be alive.
// Each beat is one shared-memory write, charged to the policy category on
// the beating node's cost model. The supervisor calls this on its cadence;
// the watchdog then reads lastBeat and nothing else.
func (f *Fleet) heartbeat() {
	now := f.clock.Cycles()
	for _, n := range f.nodes {
		if n.state != NodeHealthy {
			continue
		}
		f.clock.ChargeAs(sim.CatPolicy, n.Kernel.Costs.FleetHeartbeat)
		n.lastBeat = now
	}
}

// restore restarts a downed tenant from its latest periodic checkpoint on
// another machine: the sealed checkpoint (fleet machines share the
// provisioned sealing root) is rebuilt under the destination's EPC geometry
// and cost model, the tenant's Prepare hook rebinds its frontend, and the
// incarnation respawns. Progress since the checkpoint is gone — that loss
// is the recovery-point age, recorded per restart.
func (f *Fleet) restore(t *Tenant, to *Node) error {
	if !t.down {
		return fmt.Errorf("fleet: restore %s: not down", t.Name)
	}
	if t.cp == nil {
		return fmt.Errorf("fleet: restore %s: no checkpoint", t.Name)
	}
	if to.state != NodeHealthy {
		return fmt.Errorf("fleet: restore %s: destination %s is %s", t.Name, to.Name, to.state)
	}
	p, err := libos.Restore(to.Kernel, t.cp)
	if err != nil {
		return fmt.Errorf("fleet: restore %s on %s: %w", t.Name, to.Name, err)
	}
	if err := f.start(t, to, p, false); err != nil {
		return err
	}
	t.down = false
	t.lastMove = f.round
	f.m.Inc(metrics.CntChaosRestarts)
	f.m.Add(metrics.CntChaosDowntime, f.clock.Cycles()-t.downSince)
	f.m.Add(metrics.CntChaosRPAge, t.downSince-t.cpAt)
	return nil
}

// shed drops a tenant the surviving fleet cannot hold. A still-running
// tenant (shed during an evacuation) is killed and its server's crash
// account settled; a downed tenant just stays down. Either way the tenant
// ends with ErrShed and its downtime keeps accruing until the run ends.
func (f *Fleet) shed(t *Tenant) {
	now := f.clock.Cycles()
	if t.task != nil && !t.task.Done() {
		f.stop(t)
	}
	if !t.down {
		t.down = true
		t.downSince = now
	}
	if t.err == nil {
		t.err = ErrShed
	}
	f.m.Inc(metrics.CntChaosShed)
}

// failOver recovers the tenants of a machine the supervisor has declared
// dead: highest-priority first (registration order breaking ties), each is
// restored from its checkpoint onto a policy-chosen surviving machine.
// Tenants without a checkpoint are lost (ErrCrashed); tenants nothing can
// hold are shed (ErrShed).
func (f *Fleet) failOver(n *Node) error {
	var down []*Tenant
	for _, t := range f.tenants {
		if t.node == n && t.down {
			down = append(down, t)
		}
	}
	// Insertion sort by priority, descending; registration order is the
	// stable tiebreak. The list is a handful of tenants.
	for i := 1; i < len(down); i++ {
		for j := i; j > 0 && down[j].Config.Priority > down[j-1].Config.Priority; j-- {
			down[j], down[j-1] = down[j-1], down[j]
		}
	}
	for _, t := range down {
		if t.cp == nil {
			if t.err == nil {
				t.err = ErrCrashed
			}
			continue
		}
		dst := f.policy.Place(f, t)
		if dst == nil || dst == n {
			f.shed(t)
			continue
		}
		if err := f.restore(t, dst); err != nil {
			return err
		}
		f.m.Inc(metrics.CntChaosFailovers)
	}
	return nil
}

// evacuate moves every movable tenant off a suspect-but-alive machine onto
// policy-chosen healthy ones through the ordinary Quiesce/Adopt migration
// path, then fences the machine for good: a host that went silent once is
// not trusted with tenants again (the cordon-and-drain discipline that
// avoids split-brain). Tenants nothing can hold are shed.
func (f *Fleet) evacuate(n *Node) (int, error) {
	// Cordon first so the placement policy can never pick the machine being
	// drained as its own destination.
	n.cordoned = true
	moved := 0
	for _, t := range f.tenants {
		if t.node != n || !t.movable() {
			continue
		}
		dst := f.policy.Place(f, t)
		if dst == nil || dst == n {
			f.shed(t)
			continue
		}
		if err := f.Migrate(t, dst); err != nil {
			return moved, err
		}
		moved++
		f.m.Inc(metrics.CntChaosFailovers)
	}
	n.state = NodeFenced
	n.cordoned = true
	return moved, nil
}

// thawDue resumes machines whose freeze deadline has passed, charging each
// hosted tenant's stopped time to the failure-downtime account. A thawed
// machine goes back to work immediately; whether it stays in the placement
// set is the supervisor's call (it stays cordoned if the watchdog fired
// during the freeze).
func (f *Fleet) thawDue() {
	now := f.clock.Cycles()
	for _, n := range f.nodes {
		if n.state != NodeFrozen || now < n.frozenUntil {
			continue
		}
		n.state = NodeHealthy
		for _, t := range f.tenants {
			if t.node != n || t.task == nil || t.task.Done() {
				continue
			}
			f.m.Add(metrics.CntChaosDowntime, now-n.frozeAt)
		}
	}
}

// checkpointAll seals a periodic checkpoint of every running tenant on a
// healthy machine. Between rounds every task is parked outside its enclave,
// so the capture drives the real read path against a quiescent image; the
// stale quantum deadline is disarmed first so the capture does not take a
// phantom preemption.
func (f *Fleet) checkpointAll() error {
	now := f.clock.Cycles()
	for _, t := range f.tenants {
		if t.node == nil || t.proc == nil || t.down {
			continue
		}
		if t.node.state != NodeHealthy {
			continue
		}
		if t.task == nil || t.task.Done() {
			continue
		}
		t.node.Kernel.CPU.PreemptAt = 0
		cp, err := t.proc.Checkpoint()
		if err != nil {
			return fmt.Errorf("fleet: checkpoint %s on %s: %w", t.Name, t.node.Name, err)
		}
		t.cp, t.cpAt = cp, now
	}
	return nil
}

// Run drives the fleet to completion: thaw machines whose freeze expired,
// fire the chaos events that came due and tick the supervisor, admit
// tenants as they come due, step every healthy node's dispatch loop
// round-robin, rebalance and checkpoint on cadence, and idle the clock
// forward to the next admission, thaw, chaos event or supervisor deadline
// when nothing is runnable. It returns the first tenant body error (in
// registration order) once every tenant has finished; chaos outcomes
// (ErrCrashed, ErrShed) are not fleet failures — they stay on Tenant.Err
// for the caller to account.
func (f *Fleet) Run() error {
	if err := f.validate(); err != nil {
		return err
	}
	for {
		more, err := f.step()
		if err != nil {
			return err
		}
		if !more {
			return f.finish()
		}
	}
}

// step runs one scheduling round. It reports false when the fleet is idle
// and nothing is due to wake it.
func (f *Fleet) step() (bool, error) {
	f.thawDue()
	now := f.clock.Cycles()
	if f.chaos != nil {
		f.chaos.fireDue(f, now)
	}
	if f.sup != nil {
		if err := f.sup.tick(f, now); err != nil {
			return false, err
		}
	}
	pendingAt, pending := f.admitDue()
	for _, t := range f.tenants {
		if t.task != nil && t.task.Done() {
			f.collect(t)
		}
	}
	any := false
	for _, n := range f.nodes {
		if n.state != NodeHealthy {
			continue
		}
		if n.Sched.Step() {
			any = true
		}
	}
	if f.RebalanceEvery > 0 && f.round > 0 && f.round%f.RebalanceEvery == 0 {
		if _, err := f.Rebalance(); err != nil {
			return false, err
		}
	}
	if f.CheckpointEvery > 0 && f.round > 0 && f.round%f.CheckpointEvery == 0 {
		if err := f.checkpointAll(); err != nil {
			return false, err
		}
	}
	f.round++
	if any {
		return true, nil
	}
	wake, ok := f.nextWake(pendingAt, pending)
	if !ok {
		return false, nil
	}
	// The whole fleet is idle but something is still due (an admission, a
	// thaw, a chaos event or supervisor deadline): advance the clock there
	// instead of spinning. A deadline already in the past still advances
	// one cycle, so time cannot stall.
	now = f.clock.Cycles()
	if wake <= now {
		wake = now + 1
	}
	f.clock.ChargeAs(sim.CatCompute, wake-now)
	return true, nil
}

// finish settles the run: tenants still down are lost, and the first body
// error (in registration order) fails it.
func (f *Fleet) finish() error {
	now := f.clock.Cycles()
	for _, t := range f.tenants {
		f.collect(t)
		if t.down {
			// Never recovered: unavailable from the failure to the end of
			// the run, and lost for good.
			f.m.Add(metrics.CntChaosDowntime, now-t.downSince)
			t.down = false
			if t.err == nil {
				t.err = ErrCrashed
			}
		}
	}
	for _, t := range f.tenants {
		if t.err != nil && !errors.Is(t.err, ErrCrashed) && !errors.Is(t.err, ErrShed) {
			return fmt.Errorf("fleet: tenant %s: %w", t.Name, t.err)
		}
	}
	return nil
}

// nextWake folds the four reasons an idle fleet must keep going: a future
// admission, a frozen machine's thaw, the next chaos event, and the
// supervisor's pending deadline.
func (f *Fleet) nextWake(pendingAt uint64, pending bool) (uint64, bool) {
	wake, ok := pendingAt, pending
	for _, n := range f.nodes {
		if n.state == NodeFrozen && (!ok || n.frozenUntil < wake) {
			wake, ok = n.frozenUntil, true
		}
	}
	if s := f.chaos; s != nil && s.next < len(s.Events) && (!ok || s.Events[s.next].At < wake) {
		wake, ok = s.Events[s.next].At, true
	}
	if f.sup != nil {
		if w, wok := f.sup.pendingWake(f); wok && (!ok || w < wake) {
			wake, ok = w, true
		}
	}
	return wake, ok
}

// admitDue admits every tenant whose arrival cycle has passed; it returns
// the earliest future arrival and whether one exists.
func (f *Fleet) admitDue() (uint64, bool) {
	now := f.clock.Cycles()
	var nextAt uint64
	pending := false
	for _, t := range f.tenants {
		if t.admitted {
			continue
		}
		if t.AdmitAfter <= now {
			if err := f.admit(t); err != nil {
				if t.err == nil {
					t.err = err
				}
				t.admitted = true // do not retry a failed admission
			}
			continue
		}
		if !pending || t.AdmitAfter < nextAt {
			nextAt = t.AdmitAfter
		}
		pending = true
	}
	return nextAt, pending
}

// Accounting is the fleet-wide cycle balance sheet, the N-machine analogue
// of sched.Accounting: every cycle on the shared clock is inside some
// tenant's slices on some node, spent by some node's dispatch loop, or
// outside every scheduler (loading, sealing, adoption, fleet bookkeeping).
type Accounting struct {
	PerTenant     map[string]uint64 // scheduler-attributed cycles by tenant name
	TenantCycles  uint64            // sum over PerTenant
	SchedCycles   uint64            // all nodes' dispatch overhead
	OutsideCycles uint64            // everything else on the shared clock
	TotalCycles   uint64            // the fleet clock
}

// Accounting sums every node's scheduler account onto the shared clock.
// Because tenant names key tasks across machines, PerTenant[t] is the
// tenant's total cycles across all incarnations — source and destination
// shares of a migrated tenant land in one entry.
func (f *Fleet) Accounting() Accounting {
	a := Accounting{
		PerTenant:   make(map[string]uint64, len(f.tenants)),
		TotalCycles: f.clock.Cycles(),
	}
	for _, n := range f.nodes {
		sa := n.Sched.Accounting()
		a.SchedCycles += sa.SchedulerCycles
		for _, tm := range sa.Tasks {
			a.PerTenant[tm.Name] += tm.Cycles
			a.TenantCycles += tm.Cycles
		}
	}
	a.OutsideCycles = a.TotalCycles - a.TenantCycles - a.SchedCycles
	return a
}

// CheckAccounting verifies the cross-machine attribution invariant: each
// tenant's accumulated cycle account (folded across every incarnation it
// ran, on every node) equals the sum the node schedulers attributed to its
// tasks, and the fleet-wide buckets sum to the shared clock.
func (f *Fleet) CheckAccounting() error {
	a := f.Accounting()
	if a.TenantCycles+a.SchedCycles+a.OutsideCycles != a.TotalCycles {
		return errors.New("fleet: tenant + scheduler + outside cycles != fleet clock")
	}
	for _, t := range f.tenants {
		if got, want := t.Cycles(), a.PerTenant[t.Name]; got != want {
			return fmt.Errorf("fleet: tenant %s accounts %d cycles, schedulers attribute %d",
				t.Name, got, want)
		}
	}
	return nil
}
