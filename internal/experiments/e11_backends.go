package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/oram"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// E11 — paging-backend stacks: the unified PagingBackend pipeline means one
// storage hierarchy serves both paging mechanisms, so this experiment runs
// the same quota-pressured workload over four backend stacks (plain store,
// write-back blob cache, oblivious ORAM placement, and cache-over-ORAM) under
// both the hardware EWB/ELDU path and the SGXv2 self-paging path.
//
// Expected shape: the cache absorbs re-fetches of recently evicted pages
// (nonzero hit counter, cheaper than its uncached inner stack), the ORAM
// layer pays per-access path traffic (lowest throughput), and fronting the
// ORAM with the cache wins back the hits' tree walks. The plain store is the
// baseline: it charges nothing and counts nothing.

// E11Params sizes the experiment.
type E11Params struct {
	Rounds     int // random heap touches per cell
	HeapPages  int // enclave heap size
	QuotaPages int // EPC quota (must be < HeapPages to force paging)
	CacheBlobs int // capacity of the cached layer, in sealed blobs
	ORAMSlots  int // placement slots of the ORAM layer
	Seed       uint64
}

// DefaultE11Params returns the test-scale configuration: the heap overflows
// the quota by ~2.7x, so the workload constantly evicts and re-faults, and
// the cache is sized between quota and heap so re-fetches have a real but
// not guaranteed chance of hitting.
func DefaultE11Params() E11Params {
	return E11Params{
		Rounds:     2500,
		HeapPages:  64,
		QuotaPages: 24,
		CacheBlobs: 32,
		ORAMSlots:  256,
		Seed:       0xE11,
	}
}

// e11Stack describes one backend stack under test. A nil build leaves the
// kernel's default plain store in place.
type e11Stack struct {
	name  string
	build func(p E11Params, k *hostos.Kernel) pagestore.PagingBackend
}

// e11Stacks enumerates the stacks compared, innermost layer last in the name.
func e11Stacks() []e11Stack {
	return []e11Stack{
		{"plain", nil},
		{"cached", func(p E11Params, k *hostos.Kernel) pagestore.PagingBackend {
			return pagestore.NewCachedBackend(k.Store, p.CacheBlobs, k.Clock, *k.Costs)
		}},
		{"oram", func(p E11Params, k *hostos.Kernel) pagestore.PagingBackend {
			return oram.NewBackend(k.Store, p.ORAMSlots, k.Clock, *k.Costs, p.Seed)
		}},
		{"cached+oram", func(p E11Params, k *hostos.Kernel) pagestore.PagingBackend {
			inner := oram.NewBackend(k.Store, p.ORAMSlots, k.Clock, *k.Costs, p.Seed)
			return pagestore.NewCachedBackend(inner, p.CacheBlobs, k.Clock, *k.Costs)
		}},
	}
}

// e11Mechs lists the paging mechanisms every stack runs under.
func e11Mechs() []core.Mech { return []core.Mech{core.MechSGX1, core.MechSGX2} }

// E11Row is one (stack, mechanism) cell.
type E11Row struct {
	Stack       string
	Backend     string // the installed stack's self-reported Name()
	Mech        string
	OpsPerSec   float64 // throughput over the application phase
	PagingShare float64 // application-phase cycles in CatPaging+CatCrypto
	Stores      uint64  // sealed blobs written into backend layers (whole cell)
	Loads       uint64  // sealed blobs read out of backend layers (whole cell)
	Hits        uint64  // loads served by a cache layer
	Misses      uint64  // loads that went beneath a cache layer
	HitRate     float64 // Hits / Loads (0 when the stack has no cache)
}

// E11Result is the experiment output.
type E11Result struct {
	Rows    []E11Row
	Metrics []CellMetrics
}

// RunE11 executes one cell per (stack, mechanism) pair.
func RunE11(p E11Params) E11Result {
	stacks, mechs := e11Stacks(), e11Mechs()
	cells, cm := runCells("E11", len(stacks)*len(mechs), func(i int, rec *cellRecorder) E11Row {
		return runE11Cell(rec, p, stacks[i/len(mechs)], mechs[i%len(mechs)])
	})
	return E11Result{Rows: cells, Metrics: cm}
}

func runE11Cell(rec *cellRecorder, p E11Params, stack e11Stack, mech core.Mech) E11Row {
	k := newHost(sim.DefaultCosts())
	if stack.build != nil {
		k.SetBackend(stack.build(p, k))
	}
	img := libos.AppImage{
		Name:      "backends",
		Libraries: []libos.Library{{Name: "libbackends.so", Pages: 2}},
		HeapPages: p.HeapPages,
	}
	cfg := libos.Config{
		SelfPaging:     true,
		Mech:           mech,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 40,
		QuotaPages:     p.QuotaPages,
	}
	proc, err := libos.Load(k, img, cfg)
	if err != nil {
		panic(fmt.Sprintf("E11 load (%s/%s): %v", stack.name, mech, err))
	}

	before := metrics.Of(k.Clock).Snapshot()
	var start, end uint64
	rng := sim.NewRand(p.Seed)
	runErr := proc.Run(func(ctx *core.Context) {
		start = k.Clock.Cycles()
		heap := proc.Heap.PageVAs()
		for r := 0; r < p.Rounds; r++ {
			ctx.Load(heap[rng.Intn(len(heap))])
		}
		end = k.Clock.Cycles()
	})
	if runErr != nil {
		panic(fmt.Sprintf("E11 run (%s/%s): %v", stack.name, mech, runErr))
	}
	span := end - start

	snap := metrics.Of(k.Clock).Snapshot()
	rec.record(fmt.Sprintf("%s/%s", stack.name, mech), snap)
	var pagingShare float64
	if span > 0 {
		phase := snap.Attribution[sim.CatPaging] + snap.Attribution[sim.CatCrypto] -
			before.Attribution[sim.CatPaging] - before.Attribution[sim.CatCrypto]
		pagingShare = float64(phase) / float64(span)
	}

	row := E11Row{
		Stack:       stack.name,
		Backend:     k.Backend().Name(),
		Mech:        mech.String(),
		OpsPerSec:   PerSecond(uint64(p.Rounds), span),
		PagingShare: pagingShare,
		Stores:      snap.Counter(metrics.CntBackendStores),
		Loads:       snap.Counter(metrics.CntBackendLoads),
		Hits:        snap.Counter(metrics.CntBackendHits),
		Misses:      snap.Counter(metrics.CntBackendMisses),
	}
	if row.Loads > 0 {
		row.HitRate = float64(row.Hits) / float64(row.Loads)
	}
	return row
}

// Table renders the result.
func (r E11Result) Table() *Table {
	t := &Table{
		Title: "E11: paging-backend stacks — one storage hierarchy under both paging mechanisms",
		Note: "same quota-pressured workload per cell; counters cover the whole cell (loading included);\n" +
			"expected shape: cache absorbs re-fetches (nonzero hits), ORAM pays path traffic per access,\n" +
			"cache-over-ORAM wins the hits' tree walks back; plain store counts nothing by design",
		Header: []string{"stack", "mech", "ops/s", "paging share",
			"stores", "loads", "hits", "misses", "hit rate"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Stack,
			row.Mech,
			F(row.OpsPerSec),
			fmt.Sprintf("%.1f%%", 100*row.PagingShare),
			fmt.Sprintf("%d", row.Stores),
			fmt.Sprintf("%d", row.Loads),
			fmt.Sprintf("%d", row.Hits),
			fmt.Sprintf("%d", row.Misses),
			fmt.Sprintf("%.0f%%", 100*row.HitRate),
		)
	}
	t.Metrics = r.Metrics
	return t
}
