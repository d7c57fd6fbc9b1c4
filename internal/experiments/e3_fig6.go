package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/oram"
	"autarky/internal/sim"
	"autarky/internal/workloads"
)

// E3 — Figure 6: effect of cluster size on uthash lookup throughput,
// compared with cached ORAM (Autarky) and uncached ORAM (vanilla-SGX
// CoSMIX). The paper's shape: throughput falls as clusters grow; rehashing
// improves clusters ~1.5×; cached ORAM and clusters break even around 10
// pages/cluster; uncached ORAM is orders of magnitude (232×) slower than
// cached.
//
// Scaled geometry preserving the paper's ratios: data:EPC ≈ 431:190,
// ORAM cache ≈ 128/431 of the data, tree spare factor ≈ 1GB/431MB.

// E3Params sizes the experiment.
type E3Params struct {
	Items       int // hash items (256 B each, ≤10 per bucket)
	Lookups     int // measured random lookups per configuration
	UncachedOps int // lookups for the (slow) uncached ORAM point
	Seed        uint64
}

// DefaultE3Params returns the test-scale configuration. Items is sized so
// that even the largest (100-page) clusters fit in the scaled EPC quota.
func DefaultE3Params() E3Params {
	return E3Params{Items: 8192, Lookups: 1500, UncachedOps: 120, Seed: 0xE3}
}

// E3Row is one series point.
type E3Row struct {
	Config     string
	ReqPerSec  float64
	CyclesPerc float64 // cycles per request
}

// E3Result is the experiment output.
type E3Result struct {
	ClusterSizes []int
	Fresh        []E3Row // clusters, before rehash
	Rehashed     []E3Row // clusters, after rehash
	ORAMCached   E3Row
	ORAMUncached E3Row
	Metrics      []CellMetrics
}

func uthashCfg(p E3Params) workloads.UTHashConfig {
	return workloads.UTHashConfig{Items: p.Items, ItemsPerBkt: 10}
}

func e3Image(arena int) libos.AppImage {
	return libos.AppImage{
		Name:      "uthash",
		Libraries: []libos.Library{{Name: "libuthash.so", Pages: 4}},
		HeapPages: arena + 16,
	}
}

func e3Quota(arena int) int {
	// data:EPC ratio 431:190 from the paper, plus pinned stack+code.
	return 12 + arena*190/431
}

// RunE3 executes the sweep. Cluster sizes that cannot fit in the scaled
// EPC quota (a whole cluster must be fetchable at once) are skipped, which
// only matters for reduced test-scale parameter sets.
func RunE3(p E3Params) E3Result {
	arena := workloads.UTHashArenaPages(uthashCfg(p))
	maxCluster := (e3Quota(arena) - 12) / 2
	res := E3Result{}
	for _, c := range []int{1, 2, 5, 10, 20, 50, 100} {
		if c <= maxCluster {
			res.ClusterSizes = append(res.ClusterSizes, c)
		}
	}

	// One cell per quota sweep point, plus the two ORAM reference points.
	type e3Cell struct {
		fresh, rehashed, oram E3Row
	}
	n := len(res.ClusterSizes)
	cells, cm := runCells("E3", n+2, func(i int, rec *cellRecorder) e3Cell {
		switch {
		case i < n:
			fresh, rehashed := runE3Clusters(rec, p, arena, res.ClusterSizes[i])
			return e3Cell{fresh: fresh, rehashed: rehashed}
		case i == n:
			return e3Cell{oram: runE3ORAM(rec, p, arena, false)}
		default:
			return e3Cell{oram: runE3ORAM(rec, p, arena, true)}
		}
	})
	res.Metrics = cm
	for _, c := range cells[:n] {
		res.Fresh = append(res.Fresh, c.fresh)
		res.Rehashed = append(res.Rehashed, c.rehashed)
	}
	res.ORAMCached = cells[n].oram
	res.ORAMUncached = cells[n+1].oram
	return res
}

func runE3Clusters(rec *cellRecorder, p E3Params, arena, clusterSize int) (fresh, rehashed E3Row) {
	rc := RunConfig{Config: libos.Config{
		SelfPaging:       true,
		Policy:           libos.PolicyClusters,
		QuotaPages:       e3Quota(arena),
		DataClusterPages: clusterSize,
	}}
	label := fmt.Sprintf("clusters/%d", clusterSize)
	var cyc1, cyc2 uint64
	result := RunApp(e3Image(arena), rc, func(proc *libos.Process, ctx *core.Context) {
		backend, err := workloads.NewDirectBackend(proc.Alloc, arena)
		if err != nil {
			panic(err)
		}
		u, err := workloads.BuildUTHash(ctx, backend, uthashCfg(p))
		if err != nil {
			panic(err)
		}
		rng := sim.NewRand(p.Seed)
		clk := proc.Kernel.Clock

		t0 := clk.Cycles()
		for i := 0; i < p.Lookups; i++ {
			u.Lookup(ctx, u.Key(rng.Intn(p.Items)))
			ctx.Progress(1)
		}
		cyc1 = clk.Cycles() - t0

		if err := u.Rehash(ctx); err != nil {
			panic(err)
		}
		t1 := clk.Cycles()
		for i := 0; i < p.Lookups; i++ {
			u.Lookup(ctx, u.Key(rng.Intn(p.Items)))
			ctx.Progress(1)
		}
		cyc2 = clk.Cycles() - t1
	})
	rec.record("", result.Metrics)
	if result.Err != nil {
		panic(fmt.Sprintf("E3 %s: %v", label, result.Err))
	}
	fresh = E3Row{Config: label, ReqPerSec: PerSecond(uint64(p.Lookups), cyc1), CyclesPerc: float64(cyc1) / float64(p.Lookups)}
	rehashed = E3Row{Config: label + "+rehash", ReqPerSec: PerSecond(uint64(p.Lookups), cyc2), CyclesPerc: float64(cyc2) / float64(p.Lookups)}
	return fresh, rehashed
}

func runE3ORAM(rec *cellRecorder, p E3Params, arena int, uncached bool) E3Row {
	rc := RunConfig{Config: libos.Config{SelfPaging: true, Policy: libos.PolicyORAM, QuotaPages: e3Quota(arena)}}
	ops := p.Lookups
	label := "oram-cached"
	if uncached {
		ops = p.UncachedOps
		label = "oram-uncached"
	}
	var cycles uint64
	var measured int
	img := e3Image(arena)
	img.HeapPages = 8 // table lives behind the ORAM, not the heap
	result := RunApp(img, rc, func(proc *libos.Process, ctx *core.Context) {
		clk := proc.Kernel.Clock
		costs := proc.Kernel.Costs
		// The ORAM runs at the paper's full-scale geometry — a 1 GiB tree
		// (2^18 4-KiB blocks) — regardless of the scaled-down data arena,
		// so path length and oblivious-scan costs match the paper's
		// configuration; only the number of *used* blocks is scaled.
		const treeBlocks = 1 << 18
		po := oram.New(treeBlocks, 4096, 4, clk, costs, p.Seed)
		var store oram.Store
		if uncached {
			po.Oblivious = true
			store = oram.Direct{O: po}
		} else {
			store = oram.NewCache(po, arena*128/431, clk, costs)
		}
		backend, err := workloads.NewORAMBackend(store, arena, label)
		if err != nil {
			panic(err)
		}
		u, err := workloads.BuildUTHash(ctx, backend, uthashCfg(p))
		if err != nil {
			panic(err)
		}
		rng := sim.NewRand(p.Seed)
		t0 := clk.Cycles()
		for i := 0; i < ops; i++ {
			u.Lookup(ctx, u.Key(rng.Intn(p.Items)))
			ctx.Progress(1)
		}
		cycles = clk.Cycles() - t0
		measured = ops
	})
	rec.record("", result.Metrics)
	if result.Err != nil {
		panic(fmt.Sprintf("E3 %s: %v", label, result.Err))
	}
	return E3Row{Config: label, ReqPerSec: PerSecond(uint64(measured), cycles), CyclesPerc: float64(cycles) / float64(measured)}
}

// Table renders the result.
func (r E3Result) Table() *Table {
	t := &Table{
		Title:  "E3 / Fig.6: uthash throughput vs cluster size, clusters vs ORAM",
		Note:   "paper shape: throughput inversely proportional to cluster size; rehash ~1.5x better;\ncached-ORAM/cluster break-even near 10 pages; uncached ORAM ~232x slower than cached",
		Header: []string{"config", "requests/s", "cycles/req"},
	}
	for i := range r.Fresh {
		t.AddRow(r.Fresh[i].Config, F(r.Fresh[i].ReqPerSec), F(r.Fresh[i].CyclesPerc))
	}
	for i := range r.Rehashed {
		t.AddRow(r.Rehashed[i].Config, F(r.Rehashed[i].ReqPerSec), F(r.Rehashed[i].CyclesPerc))
	}
	t.AddRow(r.ORAMCached.Config, F(r.ORAMCached.ReqPerSec), F(r.ORAMCached.CyclesPerc))
	t.AddRow(r.ORAMUncached.Config, F(r.ORAMUncached.ReqPerSec), F(r.ORAMUncached.CyclesPerc))
	t.AddRow("cached/uncached ratio", F(r.ORAMCached.ReqPerSec/r.ORAMUncached.ReqPerSec)+"x", "(paper: ~232x)")
	t.Metrics = r.Metrics
	return t
}
