package experiments

import (
	"fmt"

	"autarky/internal/fleet"
	"autarky/internal/service"
	"autarky/internal/sim"
)

// E16 — fleet-wide chaos: crash-stop failures, supervised self-healing, and
// availability accounting. Each cell is one five-machine fleet under a single
// deterministic clock, serving open-loop traffic through six tenants while a
// seeded chaos schedule crash-stops machines, freezes one stop-the-world, and
// partitions another's service channels. The grid sweeps the recovery story:
// first-fit and watermark ride out the failures with no supervision (crashed
// tenants stay down, their remaining traffic is lost outright), while the
// supervised cell runs the watchdog/heartbeat supervisor over periodic
// checkpoints — crashed machines are detected blind (heartbeat silence, two
// deadlines), their tenants restored from the latest checkpoint onto
// survivors, frozen machines that speak again are evacuated and fenced, and
// tenants the surviving EPC cannot hold are shed.
//
// Expected shape: the same failures hit every cell at the same cycles (one
// seed builds every cell's schedule), so the columns differ only in what
// happens next. Unsupervised cells bleed: downtime accrues from each crash to
// the end of the run and every unadmitted arrival of a downed tenant is lost.
// The supervised cell pays a visible price — heartbeats and watchdog sweeps
// in the policy bucket, checkpoint capture on the compute path, a
// recovery-point's worth of lost progress per restart — and buys strictly
// less downtime and strictly fewer lost requests. Either way the fleet-wide
// cycle account balances.

// E16Params sizes the experiment.
type E16Params struct {
	Tenants         int     // serving tenants admitted in waves
	Conns           int     // client connections per tenant
	Requests        int     // open-loop requests per tenant
	MeanGap         float64 // mean cycles between a tenant's arrivals
	HeapPages       int     // tenant heap (the touched working set)
	QuotaPages      int     // EPC residency quota (also the placement footprint)
	QueueCap        int     // per-connection queue bound
	Quantum         uint64  // node scheduler time slice
	RebalanceEvery  int     // policy scan cadence in fleet rounds
	CheckpointEvery int     // checkpoint cadence in fleet rounds (supervised cell)
	AdmitGap        uint64  // cycles between admission waves

	Horizon         uint64 // chaos events land in [Horizon/8, Horizon)
	Crashes         int    // crash-stop machine failures
	Freezes         int    // stop-the-world freezes
	Partitions      int    // service-channel partitions
	FreezeCycles    uint64 // freeze length; longer than the watchdog deadline
	PartitionCycles uint64 // partition length
	Deadline        uint64 // supervisor watchdog deadline in cycles

	Seed uint64
}

// DefaultE16Params returns the benchmark-scale configuration: six tenants
// over five machines, three crashes, one freeze and one partition from one
// seed. The 4M-cycle freeze outlasts two 1.5M-cycle watchdog deadlines, so
// the supervisor declares the frozen machine dead rather than evacuating and
// fencing it. Failover restores only tenants a crash took down, so the
// frozen machine's tenants are not restored: they sit parked and resume on
// the dead, cordoned machine when it thaws, an open defect (ROADMAP.md,
// fleet failure handling: a freeze longer than two deadlines).
func DefaultE16Params() E16Params {
	return E16Params{
		Tenants:         6,
		Conns:           4,
		Requests:        200,
		MeanGap:         500_000,
		HeapPages:       48,
		QuotaPages:      44,
		QueueCap:        64,
		Quantum:         60_000,
		RebalanceEvery:  8,
		CheckpointEvery: 24,
		AdmitGap:        1_500_000,
		Horizon:         60_000_000,
		Crashes:         3,
		Freezes:         1,
		Partitions:      1,
		FreezeCycles:    4_000_000,
		PartitionCycles: 2_000_000,
		Deadline:        1_500_000,
		Seed:            0xE16,
	}
}

// e16Nodes is the heterogeneous fleet: five machines with different EPC
// geometries, two of them slow.
var e16Nodes = []fleetNode{{100, false}, {120, false}, {160, true}, {200, false}, {240, true}}

// e16Cell is one column of the sweep: a placement policy, with or without
// the chaos supervisor.
type e16Cell struct {
	name       string
	policy     fleet.Policy
	supervised bool
}

// e16Cells lists the sweep columns.
func e16Cells() []e16Cell {
	return []e16Cell{
		{name: "first-fit", policy: fleet.FirstFit{}},
		{name: "watermark", policy: fleet.Watermark{High: 0.70, Low: 0.50, Cooldown: 50}},
		{name: "supervised", policy: fleet.Watermark{High: 0.70, Low: 0.50, Cooldown: 50}, supervised: true},
	}
}

// E16Row is one cell of the sweep.
type E16Row struct {
	Cell      string
	Failures  int     // machine failures injected
	HBMissed  int     // watchdog deadlines missed (supervised only)
	Failovers int     // tenants moved off failed machines
	Restarts  int     // tenants restored from a periodic checkpoint
	Shed      int     // tenants dropped for lack of surviving capacity
	Downtime  uint64  // cycles tenants spent down from failures, summed
	RPAge     uint64  // checkpoint age at each recovery, summed
	Offered   uint64  // open-loop arrivals fired fleet-wide
	Served    uint64  // successful replies delivered
	Lost      uint64  // crash-lost requests + arrivals that never fired
	Avail     float64 // 1 - downtime / (tenants x run length)
	P999      uint64  // 99.9th-percentile sojourn, fleet-wide
	PolicyShr float64 // share of fleet cycles in the policy bucket
}

// E16Result is the experiment output.
type E16Result struct {
	Rows    []E16Row
	Metrics []CellMetrics
}

// RunE16 executes one cell per recovery story.
func RunE16(p E16Params) E16Result {
	cols := e16Cells()
	cells, cm := runCells("E16", len(cols), func(i int, rec *cellRecorder) E16Row {
		return runE16Cell(rec, p, cols[i])
	})
	return E16Result{Rows: cells, Metrics: cm}
}

func runE16Cell(rec *cellRecorder, p E16Params, cell e16Cell) E16Row {
	f := newFleetCell(cell.policy, p.Quantum, e16Nodes)
	f.RebalanceEvery = p.RebalanceEvery
	for i := 0; i < p.Tenants; i++ {
		t := servingTenant(i, p.HeapPages, p.QuotaPages, fleet.Serving{
			Handlers: serveGets,
			Options:  service.Options{QueueCap: p.QueueCap, HistMax: serveHistMax},
			Conns:    p.Conns,
			Load: service.OpenLoop{
				Arrivals: service.Poisson{MeanGap: p.MeanGap},
				Requests: p.Requests,
				Seed:     p.Seed + uint64(i)*7919,
			},
		})
		t.AdmitAfter = uint64(i) * p.AdmitGap
		// Staggered priorities: failover restores the most important tenants
		// first when surviving capacity is tight.
		t.Config.Priority = i % 3
		f.Add(t)
	}

	// Every cell builds its schedule from the same plan and seed: identical
	// failures at identical cycles, so the columns differ only in recovery.
	plan := fleet.Plan{
		Seed:            p.Seed,
		Horizon:         p.Horizon,
		Crashes:         p.Crashes,
		Freezes:         p.Freezes,
		Partitions:      p.Partitions,
		FreezeCycles:    p.FreezeCycles,
		PartitionCycles: p.PartitionCycles,
		MinAlive:        2,
	}
	sched, err := plan.Build(len(f.Nodes()))
	if err != nil {
		panic(fmt.Sprintf("%s: %v", cell.name, err))
	}
	var sup *fleet.Supervisor
	if cell.supervised {
		sup = &fleet.Supervisor{Deadline: p.Deadline}
		f.CheckpointEvery = p.CheckpointEvery
	}
	if err := f.AttachChaos(sched, sup); err != nil {
		panic(fmt.Sprintf("%s: %v", cell.name, err))
	}

	snap := runFleetCell(rec, cell.name, f)

	st := f.Stats()
	tot := sumServers(fleetServers(f)...)
	row := E16Row{
		Cell:      cell.name,
		Failures:  st.Failures,
		HBMissed:  st.HeartbeatsMissed,
		Failovers: st.Failovers,
		Restarts:  st.Restarts,
		Shed:      st.Shed,
		Downtime:  st.FailureDowntime,
		RPAge:     st.RecoveryPointAge,
		Offered:   tot.offered,
		Served:    tot.served,
		// Crash-lost requests, plus the arrivals that never fired: the
		// traffic a tenant that stayed down (or was shed) would have served.
		Lost: st.LostRequests + tot.pending,
		P999: tot.hist.Percentile(0.999),
	}
	total := f.Clock().Cycles() * uint64(p.Tenants)
	if total > 0 {
		row.Avail = 1 - float64(row.Downtime)/float64(total)
	}
	row.PolicyShr = snap.Share(sim.CatPolicy)
	return row
}

// Table renders the result.
func (r E16Result) Table() *Table {
	t := &Table{
		Title: "E16: chaos fleet — crash-stop failures, supervised self-healing, availability",
		Note: "each cell: five machines (EPC 100/120/160/200/240 frames) under one clock, six open-loop serving\n" +
			"tenants, and one seeded failure schedule (3 crashes, 1 freeze, 1 partition) shared by every cell;\n" +
			"first-fit and watermark have no supervisor (crashed tenants stay down, their traffic is lost),\n" +
			"supervised adds heartbeat/watchdog detection, periodic checkpoints and restore-onto-survivors;\n" +
			"avail = 1 - downtime/(tenants x run length); the cycle account balances in every cell",
		Header: []string{"cell", "failures", "hb missed", "failovers", "restarts", "shed",
			"downtime", "rp age", "offered", "served", "lost", "avail", "p999", "policy share"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Cell,
			fmt.Sprintf("%d", row.Failures),
			fmt.Sprintf("%d", row.HBMissed),
			fmt.Sprintf("%d", row.Failovers),
			fmt.Sprintf("%d", row.Restarts),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Downtime),
			fmt.Sprintf("%d", row.RPAge),
			fmt.Sprintf("%d", row.Offered),
			fmt.Sprintf("%d", row.Served),
			fmt.Sprintf("%d", row.Lost),
			fmt.Sprintf("%.3f%%", 100*row.Avail),
			fmt.Sprintf("%d", row.P999),
			fmt.Sprintf("%.1f%%", 100*row.PolicyShr),
		)
	}
	t.Metrics = r.Metrics
	return t
}
