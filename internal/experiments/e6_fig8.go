package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/oram"
	"autarky/internal/workloads"
	"autarky/internal/ycsb"
)

// E6 — Figure 8: Memcached under YCSB workload C (100% GET, 1 KiB items,
// single thread) with the store oversubscribing EPC, across four key
// distributions (uniform, Zipf 0.99, hotspot 0.9, hotspot 0.99) and four
// configurations: insecure baseline (OS paging), rate-limited self-paging,
// 10-page clusters, and cached ORAM.
//
// Paper shape: rate-limit closest to baseline; clusters beat ORAM under
// uniform access; the gap diminishes with skew and ORAM can overtake
// clusters on hot distributions, ending within ~60% of the insecure
// baseline on the hottest mix.

// E6Params sizes the experiment.
type E6Params struct {
	Items    int // 1 KiB items (paper: 400 MB worth)
	Requests int
	Seed     uint64
}

// DefaultE6Params returns the test-scale configuration.
func DefaultE6Params() E6Params {
	return E6Params{Items: 4096, Requests: 4000, Seed: 0xE6}
}

// E6Row is one (distribution, config) cell.
type E6Row struct {
	Distribution string
	Config       string
	ReqPerSec    float64
	VsBaseline   float64
}

// E6Result is the experiment output.
type E6Result struct {
	Rows    []E6Row
	Metrics []CellMetrics
}

// e6Configs names the four configurations.
var e6Configs = []string{"baseline", "rate-limit", "cluster-10", "oram"}

// RunE6 executes the grid.
func RunE6(p E6Params) E6Result {
	mcfg := workloads.MemcachedConfig{Items: p.Items, ItemSize: 1024}
	arena := workloads.MemcachedArenaPages(mcfg)
	quota := 12 + arena*190/400 // EPC:data ≈ 190:400 as in the paper

	gens := []func(seed uint64) ycsb.Generator{
		func(s uint64) ycsb.Generator { return ycsb.NewUniform(p.Items, s) },
		func(s uint64) ycsb.Generator { return ycsb.NewZipfian(p.Items, 0.99, s) },
		func(s uint64) ycsb.Generator { return ycsb.NewHotspot(p.Items, 0.01, 0.90, s) },
		func(s uint64) ycsb.Generator { return ycsb.NewHotspot(p.Items, 0.01, 0.99, s) },
	}

	// One cell per (distribution, configuration) grid point; the baseline
	// normalization is applied after ordered collection.
	type e6CellOut struct {
		dist string
		rate float64
	}
	nc := len(e6Configs)
	cells, cm := runCells("E6", len(gens)*nc, func(i int, rec *cellRecorder) e6CellOut {
		gi, ci := i/nc, i%nc
		gen := gens[gi](p.Seed + uint64(gi))
		rate := runE6Cell(rec, p, mcfg, arena, quota, e6Configs[ci], ycsb.NewWorkloadC(gen))
		return e6CellOut{dist: gen.Name(), rate: rate}
	})
	res := E6Result{Metrics: cm}
	for gi := range gens {
		baseRate := cells[gi*nc].rate
		for ci, cfg := range e6Configs {
			c := cells[gi*nc+ci]
			res.Rows = append(res.Rows, E6Row{
				Distribution: c.dist,
				Config:       cfg,
				ReqPerSec:    c.rate,
				VsBaseline:   c.rate / baseRate,
			})
		}
	}
	return res
}

// runE6Cell serves p.Requests operations of wl from one Memcached
// configuration and returns the throughput. E6 passes workload C (every
// operation a GET); E6m passes a read/update mix.
func runE6Cell(rec *cellRecorder, p E6Params, mcfg workloads.MemcachedConfig, arena, quota int, cfg string, wl *ycsb.Workload) float64 {
	rc := RunConfig{Config: libos.Config{QuotaPages: quota}}
	heap := arena + 16
	switch cfg {
	case "baseline":
	case "rate-limit":
		rc.SelfPaging = true
		rc.Policy = libos.PolicyRateLimit
		rc.RateLimitBurst = 1 << 40
		rc.EvictBatch = 16
	case "cluster-10":
		rc.SelfPaging = true
		rc.Policy = libos.PolicyClusters
		rc.DataClusterPages = 10
	case "oram":
		rc.SelfPaging = true
		rc.Policy = libos.PolicyORAM
		heap = 16
	}

	img := libos.AppImage{
		Name:      "memcached",
		Libraries: []libos.Library{{Name: "libmemcached.so", Pages: 6}},
		HeapPages: heap,
	}
	var cycles uint64
	res := RunApp(img, rc, func(proc *libos.Process, ctx *core.Context) {
		clk := proc.Kernel.Clock
		costs := proc.Kernel.Costs
		var backend workloads.Backend
		var err error
		if cfg == "oram" {
			// Paper-scale ORAM geometry (1 GiB tree) with a cache sized at
			// the paper's 128 MB : 400 MB data ratio, pinned in EPC.
			po := oram.New(1<<18, 4096, 4, clk, costs, p.Seed)
			cache := oram.NewCache(po, arena*128/400, clk, costs)
			backend, err = workloads.NewORAMBackend(cache, arena, "oram-cached")
		} else {
			backend, err = workloads.NewDirectBackend(proc.Alloc, arena)
		}
		if err != nil {
			panic(err)
		}
		m, err := workloads.BuildMemcached(ctx, backend, clk, mcfg)
		if err != nil {
			panic(err)
		}
		t0 := clk.Cycles()
		for i := 0; i < p.Requests; i++ {
			op := wl.Next()
			if op.Read {
				m.Get(ctx, op.Key)
			} else {
				m.Set(ctx, op.Key)
			}
		}
		cycles = clk.Cycles() - t0
	})
	rec.record("", res.Metrics)
	if res.Err != nil {
		panic(fmt.Sprintf("memcached %s/%s: %v", cfg, wl.Gen.Name(), res.Err))
	}
	return PerSecond(uint64(p.Requests), cycles)
}

// Table renders the result.
func (r E6Result) Table() *Table {
	t := &Table{
		Title:  "E6 / Fig.8: Memcached + YCSB-C throughput by distribution and paging policy",
		Note:   "paper shape: baseline > rate-limit > clusters vs ORAM (uniform); ORAM catches up with skew,\nreaching within ~60% of the insecure baseline on hotspot(0.99)",
		Header: []string{"distribution", "baseline", "rate-limit", "cluster-10", "oram", "oram vs baseline"},
	}
	for i := 0; i < len(r.Rows); i += 4 {
		cells := []string{r.Rows[i].Distribution}
		for j := 0; j < 4; j++ {
			cells = append(cells, F(r.Rows[i+j].ReqPerSec))
		}
		cells = append(cells, fmt.Sprintf("%.2fx", r.Rows[i+3].VsBaseline))
		t.AddRow(cells...)
	}
	t.Metrics = r.Metrics
	return t
}
