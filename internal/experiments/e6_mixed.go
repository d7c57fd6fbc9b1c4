package experiments

import (
	"autarky/internal/workloads"
	"autarky/internal/ycsb"
)

// E6m — extension beyond the paper: Memcached under mixed YCSB workloads
// (A: 50/50 read-update; B: 95/5) rather than only workload C. Writes
// stress the policies differently — dirty pages must be written back on
// eviction, and ORAM cache writebacks stop being skippable — so this probes
// whether the paper's policy ordering survives write traffic.

// E6mRow is one (workload, config) cell.
type E6mRow struct {
	Workload  string
	Config    string
	ReqPerSec float64
}

// E6mResult is the extension output.
type E6mResult struct {
	Rows    []E6mRow
	Metrics []CellMetrics
}

// RunE6Mixed executes workloads A and B over a Zipfian key distribution for
// all four configurations.
func RunE6Mixed(p E6Params) E6mResult {
	mcfg := workloads.MemcachedConfig{Items: p.Items, ItemSize: 1024}
	arena := workloads.MemcachedArenaPages(mcfg)
	quota := 12 + arena*190/400

	workloadMixes := []struct {
		name      string
		readRatio float64
	}{
		{"YCSB-A (50/50)", 0.5},
		{"YCSB-B (95/5)", 0.95},
	}
	nc := len(e6Configs)
	rows, cm := runCells("E6m", len(workloadMixes)*nc, func(i int, rec *cellRecorder) E6mRow {
		wl, cfg := workloadMixes[i/nc], e6Configs[i%nc]
		gen := ycsb.NewZipfian(p.Items, 0.99, p.Seed)
		rate := runE6Cell(rec, p, mcfg, arena, quota, cfg, ycsb.NewWorkload(gen, wl.readRatio, p.Seed+99))
		return E6mRow{Workload: wl.name, Config: cfg, ReqPerSec: rate}
	})
	return E6mResult{Rows: rows, Metrics: cm}
}

// Table renders the extension results.
func (r E6mResult) Table() *Table {
	t := &Table{
		Title:  "E6m (extension): Memcached under mixed YCSB workloads (Zipf 0.99)",
		Note:   "beyond the paper's workload C: write traffic adds dirty-page writebacks;\nthe policy ordering from Fig.8 should survive",
		Header: []string{"workload", "baseline", "rate-limit", "cluster-10", "oram"},
	}
	for i := 0; i < len(r.Rows); i += 4 {
		t.AddRow(r.Rows[i].Workload,
			F(r.Rows[i].ReqPerSec), F(r.Rows[i+1].ReqPerSec),
			F(r.Rows[i+2].ReqPerSec), F(r.Rows[i+3].ReqPerSec))
	}
	t.Metrics = r.Metrics
	return t
}
