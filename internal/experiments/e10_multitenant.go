package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sched"
	"autarky/internal/sim"
)

// E10 — multi-tenant consolidation: N co-resident self-paging enclaves
// time-share one machine under the deterministic round-robin scheduler
// (§5.4's shared setting). A fixed total EPC quota budget is split evenly
// among the tenants, so consolidation degree is the paging-pressure knob:
// more tenants ⇒ smaller per-tenant quota ⇒ a larger share of every
// tenant's cycles goes to self-paging, while the scheduler's dispatch
// overhead grows with the preemption count.
//
// Each cell also audits the scheduler's cycle-attribution invariant: the
// per-tenant cycle accounts plus scheduler overhead plus cycles outside the
// dispatch loop (machine construction, enclave loading) must sum exactly to
// the machine's total cycles.

// E10Params sizes the experiment.
type E10Params struct {
	Tenants     []int  // tenant counts, one table row per entry
	Rounds      int    // random heap touches per tenant
	HeapPages   int    // per-tenant heap size
	QuotaBudget int    // total EPC quota shared by all tenants of a cell
	Quantum     uint64 // scheduler time slice in cycles
	Seed        uint64
}

// DefaultE10Params returns the test-scale configuration.
func DefaultE10Params() E10Params {
	return E10Params{
		Tenants:     []int{1, 2, 4, 8},
		Rounds:      2500,
		HeapPages:   48,
		QuotaBudget: 96,
		Quantum:     20_000,
		Seed:        0xE10,
	}
}

// E10Row is one consolidation level.
type E10Row struct {
	Tenants        int
	QuotaPerTenant int
	OpsPerSec      float64 // aggregate throughput over the scheduled phase
	PerTenantOps   float64 // OpsPerSec / Tenants
	PagingShare    float64 // scheduled-phase cycles in CatPaging+CatCrypto
	SchedShare     float64 // machine cycles spent in the dispatch loop
	Preemptions    uint64  // total quantum expirations
	Fairness       float64 // min/max per-tenant cycle account (1.0 = even)
}

// E10Result is the experiment output.
type E10Result struct {
	Rows    []E10Row
	Metrics []CellMetrics
}

// e10Base returns tenant i's ELRANGE base: co-resident enclaves share one
// page table, so their address ranges must be disjoint (1 GiB slots).
func e10Base(i int) mmu.VAddr {
	return libos.DefaultBase + mmu.VAddr(uint64(i)<<30)
}

// RunE10 executes one cell per tenant count.
func RunE10(p E10Params) E10Result {
	cells, cm := runCells("E10", len(p.Tenants), func(i int, rec *cellRecorder) E10Row {
		return runE10Cell(rec, p, p.Tenants[i])
	})
	return E10Result{Rows: cells, Metrics: cm}
}

func runE10Cell(rec *cellRecorder, p E10Params, tenants int) E10Row {
	k := newHost(sim.DefaultCosts())
	sc := sched.New(k, sched.NewRoundRobin(), p.Quantum)
	quota := p.QuotaBudget / tenants

	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant%d", i)
		img := libos.AppImage{
			Name:      name,
			Libraries: []libos.Library{{Name: "lib" + name + ".so", Pages: 2}},
			HeapPages: p.HeapPages,
		}
		cfg := libos.Config{
			Base:           e10Base(i),
			SelfPaging:     true,
			Policy:         libos.PolicyRateLimit,
			RateLimitBurst: 1 << 40,
			QuotaPages:     quota,
		}
		proc, err := libos.Load(k, img, cfg)
		if err != nil {
			panic(fmt.Sprintf("E10 load %s (n=%d, quota=%d): %v", name, tenants, quota, err))
		}
		rng := sim.NewRand(p.Seed + uint64(i))
		rounds := p.Rounds
		sc.Spawn(name, 0, proc.Proc, func() error {
			return proc.Run(func(ctx *core.Context) {
				heap := proc.Heap.PageVAs()
				for r := 0; r < rounds; r++ {
					ctx.Load(heap[rng.Intn(len(heap))])
				}
			})
		})
	}

	// Loading is done; measure the scheduled phase in isolation so the
	// paging-share column reflects contention, not enclave-build crypto.
	before := metrics.Of(k.Clock).Snapshot()
	start := k.Clock.Cycles()
	if err := sc.WaitAll(); err != nil {
		panic(fmt.Sprintf("E10 n=%d: %v", tenants, err))
	}
	span := k.Clock.Cycles() - start

	acct := sc.Accounting()
	if err := acct.Check(); err != nil {
		panic(fmt.Sprintf("E10 n=%d accounting: %v", tenants, err))
	}
	if acct.TotalCycles != k.Clock.Cycles() {
		panic(fmt.Sprintf("E10 n=%d: accounting total %d != machine cycles %d",
			tenants, acct.TotalCycles, k.Clock.Cycles()))
	}
	var preempts, minCyc, maxCyc uint64
	for _, tm := range acct.Tasks {
		preempts += tm.Preemptions
		if minCyc == 0 || tm.Cycles < minCyc {
			minCyc = tm.Cycles
		}
		if tm.Cycles > maxCyc {
			maxCyc = tm.Cycles
		}
	}
	snap := metrics.Of(k.Clock).Snapshot()
	rec.record("", snap)
	var pagingShare float64
	if span > 0 {
		phase := snap.Attribution[sim.CatPaging] + snap.Attribution[sim.CatCrypto] -
			before.Attribution[sim.CatPaging] - before.Attribution[sim.CatCrypto]
		pagingShare = float64(phase) / float64(span)
	}

	row := E10Row{
		Tenants:        tenants,
		QuotaPerTenant: quota,
		OpsPerSec:      PerSecond(uint64(tenants*p.Rounds), span),
		PagingShare:    pagingShare,
		SchedShare:     float64(acct.SchedulerCycles) / float64(acct.TotalCycles),
		Preemptions:    preempts,
	}
	row.PerTenantOps = row.OpsPerSec / float64(tenants)
	if maxCyc > 0 {
		row.Fairness = float64(minCyc) / float64(maxCyc)
	}
	return row
}

// Table renders the result.
func (r E10Result) Table() *Table {
	t := &Table{
		Title: "E10: multi-tenant consolidation — throughput and paging share vs co-resident enclaves",
		Note: "fixed EPC quota budget split across tenants; expected shape: aggregate throughput falls and\n" +
			"paging share rises as consolidation shrinks each tenant's quota; fairness stays near 1.0",
		Header: []string{"tenants", "quota/tenant", "ops/s total", "ops/s per tenant",
			"paging share", "sched share", "preempts", "fairness"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Tenants),
			fmt.Sprintf("%d", row.QuotaPerTenant),
			F(row.OpsPerSec),
			F(row.PerTenantOps),
			fmt.Sprintf("%.1f%%", 100*row.PagingShare),
			fmt.Sprintf("%.2f%%", 100*row.SchedShare),
			fmt.Sprintf("%d", row.Preemptions),
			fmt.Sprintf("%.2f", row.Fairness),
		)
	}
	t.Metrics = r.Metrics
	return t
}
