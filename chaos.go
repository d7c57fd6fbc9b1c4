package autarky

import (
	"autarky/internal/fleet"
)

// Chaos types re-exported into the public API: the seeded failure injector
// and the heartbeat-driven supervisor that heals a fleet through it. See
// internal/fleet for the failure and detection model.
type (
	// ChaosPlan is a seeded chaos recipe: so many crashes, freezes and
	// partitions spread over a cycle horizon. Build expands it into a
	// concrete, deterministic ChaosSchedule.
	ChaosPlan = fleet.Plan
	// ChaosSchedule is an ordered list of planned machine failures; attach
	// it to a fleet with AttachChaos.
	ChaosSchedule = fleet.Schedule
	// ChaosEvent is one planned failure (cycle, kind, victim, duration).
	ChaosEvent = fleet.Event
	// ChaosEventKind selects a failure mode: crash, freeze or partition.
	ChaosEventKind = fleet.EventKind
	// ChaosSupervisor detects machine failures through heartbeat deadlines
	// alone and heals the fleet: checkpoint restarts for dead machines,
	// Quiesce/Adopt evacuation for suspect ones, shedding when surviving
	// capacity cannot hold everyone.
	ChaosSupervisor = fleet.Supervisor
	// FleetNodeState is a fleet machine's health (healthy, frozen, crashed,
	// fenced), as reported by FleetNode.State.
	FleetNodeState = fleet.NodeState
)

// The failure modes a ChaosEvent can carry.
const (
	ChaosCrash     = fleet.KindCrash
	ChaosFreeze    = fleet.KindFreeze
	ChaosPartition = fleet.KindPartition
)

// The fleet machine health states.
const (
	NodeHealthy = fleet.NodeHealthy
	NodeFrozen  = fleet.NodeFrozen
	NodeCrashed = fleet.NodeCrashed
	NodeFenced  = fleet.NodeFenced
)

// Chaos outcome sentinels: tenants the fleet could not keep running end
// with one of these on Tenant.Err (Fleet.Run does not fail on them).
var (
	// ErrTenantCrashed marks a tenant lost in a machine crash and never
	// recovered.
	ErrTenantCrashed = fleet.ErrCrashed
	// ErrTenantShed marks a tenant dropped because surviving EPC capacity
	// could not hold it; it is ErrQuotaExceeded-family.
	ErrTenantShed = fleet.ErrShed
)

// AttachChaos wires a failure schedule and (optionally) a supervisor into
// a fleet's run loop. sched may be nil (supervision only); sup may be nil
// (injection only — the no-supervisor baseline). Call after the fleet's
// nodes are added and before Fleet.Run.
func AttachChaos(f *Fleet, sched *ChaosSchedule, sup *ChaosSupervisor) error {
	return f.AttachChaos(sched, sup)
}
