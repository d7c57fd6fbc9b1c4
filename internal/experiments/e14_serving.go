package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sched"
	"autarky/internal/service"
	"autarky/internal/sim"
)

// E14 — open-loop serving: the request-serving frontend under multi-tenant
// paging pressure. Each cell is one machine running Tenants enclave-resident
// servers under the deterministic scheduler; an open-loop client population
// (half Poisson, half bursty, same mean load) fires requests at every
// server, and the exact per-request histogram turns the paging policies'
// cost into tail percentiles. The grid sweeps paging policy x scheduler
// quantum x paging mechanism.
//
// Expected shape: pin-all is the latency floor (no paging on the hot path,
// identical under either mechanism); rate-limit and clusters trade tail for
// the paper's security properties, clusters amortizing the per-fault fixed
// cost over whole objects; SGXv2 self-paging pays its extra crossings and
// software crypto on the tail (per-page it is pricier than SGXv1 EWB/ELDU,
// matching the paper — the controlled channel closes at a latency cost);
// a longer quantum shortens the secure policies' tail because fewer faults
// are interrupted mid-service.

// E14Params sizes the experiment.
type E14Params struct {
	Tenants    int     // servers per cell (arrival mix alternates Poisson/bursty)
	Conns      int     // client connections per server
	Requests   int     // open-loop requests per server
	MeanGap    float64 // mean cycles between a server's arrivals
	Burst      int     // burst size of the bursty tenants
	HeapPages  int     // server heap (the touched working set)
	QuotaPages int     // EPC quota under the paging policies
	QueueCap   int     // per-connection queue bound
	KeepAlive  uint64  // keep-alive idle threshold (0 disables)
	Seed       uint64
}

// DefaultE14Params returns the benchmark-scale configuration: 2 tenants x
// 500 connections x 50k requests per cell = 1000 simulated clients and 100k
// requests per cell, 1.2M requests over the 12-cell grid. The quota holds
// most of the heap (pinned stack/code also count against it), so the paging
// policies miss on roughly a fifth of object touches;
// the mean gap keeps them loaded but stable (pin-all is lightly loaded), so
// the tail percentiles resolve paging and queueing rather than clamping at
// the histogram range.
func DefaultE14Params() E14Params {
	return E14Params{
		Tenants:    2,
		Conns:      500,
		Requests:   50_000,
		MeanGap:    70_000,
		Burst:      16,
		HeapPages:  96,
		QuotaPages: 88,
		QueueCap:   256,
		KeepAlive:  1 << 20,
		Seed:       0xE14,
	}
}

// e14Policy is one paging-policy column of the sweep.
type e14Policy struct {
	name string
	cfg  func(p E14Params, c *libos.Config)
}

func e14Policies() []e14Policy {
	return []e14Policy{
		{"pin-all", func(p E14Params, c *libos.Config) {
			c.Policy = libos.PolicyPinAll
		}},
		{"rate-limit", func(p E14Params, c *libos.Config) {
			c.Policy = libos.PolicyRateLimit
			c.QuotaPages = p.QuotaPages
			c.RateLimitBurst = 1 << 40
		}},
		{"clusters", func(p E14Params, c *libos.Config) {
			c.Policy = libos.PolicyClusters
			c.QuotaPages = p.QuotaPages
			c.DataClusterPages = objPages
		}},
	}
}

// e14Quanta lists the scheduler quanta swept.
func e14Quanta() []uint64 { return []uint64{60_000, 240_000} }

// e14Mechs lists the paging mechanisms swept: the SGXv1 EWB/ELDU kernel
// round trip against SGXv2 self-paging.
func e14Mechs() []core.Mech { return []core.Mech{core.MechSGX1, core.MechSGX2} }

// E14Row is one (policy, quantum, backend) cell.
type E14Row struct {
	Policy      string
	Quantum     uint64
	Mech        string
	Offered     uint64  // open-loop arrivals fired at the cell's servers
	Served      uint64  // successful replies delivered
	Shed        uint64  // backpressure refusals + deadline sheds
	KeepAlives  uint64  // keep-alive round trips
	Preempts    uint64  // involuntary quantum expirations
	OpsPerSec   float64 // served requests over the serving phase
	P50         uint64  // median sojourn, cycles
	P99         uint64  // 99th-percentile sojourn
	P999        uint64  // 99.9th-percentile sojourn
	MaxLat      uint64  // worst sojourn
	Saturated   uint64  // sojourns clamped at the histogram range
	PagingShare float64 // serving-phase cycles in CatPaging+CatCrypto
}

// E14Result is the experiment output.
type E14Result struct {
	Rows    []E14Row
	Metrics []CellMetrics
}

// RunE14 executes one cell per (policy, quantum, backend) triple.
func RunE14(p E14Params) E14Result {
	pols, quanta, mechs := e14Policies(), e14Quanta(), e14Mechs()
	n := len(pols) * len(quanta) * len(mechs)
	cells, cm := runCells("E14", n, func(i int, rec *cellRecorder) E14Row {
		pol := pols[i/(len(quanta)*len(mechs))]
		q := quanta[(i/len(mechs))%len(quanta)]
		mech := mechs[i%len(mechs)]
		return runE14Cell(rec, p, pol, q, mech)
	})
	return E14Result{Rows: cells, Metrics: cm}
}

func runE14Cell(rec *cellRecorder, p E14Params, pol e14Policy, quantum uint64, mech core.Mech) E14Row {
	m := newBareMachine(sim.DefaultCosts())
	sc := sched.New(m.kernel, sched.NewRoundRobin(), quantum)

	servers := make([]*service.Server, p.Tenants)
	for t := 0; t < p.Tenants; t++ {
		img := libos.AppImage{
			Name:      fmt.Sprintf("srv%d", t),
			Libraries: []libos.Library{{Name: "libserve.so", Pages: 2}},
			HeapPages: p.HeapPages,
		}
		cfg := libos.Config{
			SelfPaging: true,
			Mech:       mech,
			Base:       libos.DefaultBase + mmu.VAddr(t)<<30,
		}
		pol.cfg(p, &cfg)
		proc, err := libos.Load(m.kernel, m.clock, m.costs, img, cfg)
		if err != nil {
			panic(fmt.Sprintf("E14 load (%s/q%d/%s): %v", pol.name, quantum, mech, err))
		}
		// Allocate the working set through the libOS allocator so the
		// clusters policy sees it as clustered data (raw region pages are
		// never clustered and would degenerate to rate-limit behaviour).
		heap, err := proc.Alloc.AllocPages(p.HeapPages)
		if err != nil {
			panic(fmt.Sprintf("E14 alloc (%s): %v", pol.name, err))
		}
		proc.Handle("get", getHandler(heap))
		srv, err := service.New(proc, service.Options{
			QueueCap:       p.QueueCap,
			KeepAliveEvery: p.KeepAlive,
			HistMax:        serveHistMax,
		})
		if err != nil {
			panic(fmt.Sprintf("E14 service (%s): %v", pol.name, err))
		}
		srv.Idle = sc.Yield
		servers[t] = srv
		for i := 0; i < p.Conns; i++ {
			if _, err := srv.Dial(); err != nil {
				panic(fmt.Sprintf("E14 dial: %v", err))
			}
		}
	}
	// Preload every schedule after all loading, so tenants' arrival clocks
	// start together; then spawn the dispatch loops in tenant order.
	for t, srv := range servers {
		err := srv.Preload(service.OpenLoop{
			Arrivals: mixedArrivals(t, p.MeanGap, p.Burst),
			Requests: p.Requests,
			Seed:     p.Seed + uint64(t)*7919,
		})
		if err != nil {
			panic(fmt.Sprintf("E14 preload: %v", err))
		}
	}
	for t, srv := range servers {
		srv := srv
		sc.Spawn(srv.Name(), 0, srv.Process().Proc, func() error {
			return servers[t].Process().Run(srv.Loop)
		})
	}

	before := metrics.Of(m.clock).Snapshot()
	start := m.clock.Cycles()
	if err := sc.WaitAll(); err != nil {
		panic(fmt.Sprintf("E14 serve (%s/q%d/%s): %v", pol.name, quantum, mech, err))
	}
	span := m.clock.Cycles() - start
	snap := metrics.Of(m.clock).Snapshot()
	rec.record(fmt.Sprintf("%s/q%d/%s", pol.name, quantum, mech), snap)

	tot := sumServers(servers...)
	hist := tot.hist
	row := E14Row{
		Policy:     pol.name,
		Quantum:    quantum,
		Mech:       mech.String(),
		Offered:    tot.offered,
		Served:     tot.served,
		Shed:       tot.shed,
		KeepAlives: tot.keepAlives,
	}
	row.Preempts = snap.Counter(metrics.CntSchedPreemptions)
	row.OpsPerSec = PerSecond(row.Served, span)
	row.P50 = hist.Percentile(0.50)
	row.P99 = hist.Percentile(0.99)
	row.P999 = hist.Percentile(0.999)
	row.MaxLat = hist.Max()
	row.Saturated = hist.Saturated()
	if span > 0 {
		phase := snap.Attribution[sim.CatPaging] + snap.Attribution[sim.CatCrypto] -
			before.Attribution[sim.CatPaging] - before.Attribution[sim.CatCrypto]
		row.PagingShare = float64(phase) / float64(span)
	}
	return row
}

// Table renders the result.
func (r E14Result) Table() *Table {
	t := &Table{
		Title: "E14: open-loop serving — tail latency per (paging policy x quantum x mechanism)",
		Note: "each cell: multi-tenant machine, open-loop arrivals (Poisson + bursty), exact per-request\n" +
			"sojourn percentiles in cycles; pin-all is the no-paging latency floor, the secure policies\n" +
			"pay their paging on the serving tail, and SGXv2 self-paging prices its security in tail cycles",
		Header: []string{"policy", "quantum", "mech", "offered", "served", "shed",
			"ops/s", "p50", "p99", "p999", "max", "paging share"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Policy,
			fmt.Sprintf("%d", row.Quantum),
			row.Mech,
			fmt.Sprintf("%d", row.Offered),
			fmt.Sprintf("%d", row.Served),
			fmt.Sprintf("%d", row.Shed),
			F(row.OpsPerSec),
			fmt.Sprintf("%d", row.P50),
			fmt.Sprintf("%d", row.P99),
			fmt.Sprintf("%d", row.P999),
			fmt.Sprintf("%d", row.MaxLat),
			fmt.Sprintf("%.1f%%", 100*row.PagingShare),
		)
	}
	t.Metrics = r.Metrics
	return t
}
