package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/sim"
	"autarky/internal/workloads"
)

// E8b — code-cluster granularity (§5.2.3): "a loader may also create
// clusters at the finer granularity of individual functions for better
// paging performance, if control flow between functions is not considered
// sensitive." Measured on the FreeType renderer with its glyph code paged
// under EPC pressure:
//
//   - pinned code:          no paging, no leak (the Table 2 configuration);
//   - per-library cluster:  one fault fetches the whole library — maximal
//     anonymity, maximal paging traffic;
//   - per-function cluster: one fault fetches one glyph function — fast,
//     but an instruction fetch leaks the glyph (= the original attack's
//     signal, now rate-bounded only).

// E8bRow is one granularity's measurements.
type E8bRow struct {
	Granularity   string
	KopsPerSec    float64
	Faults        uint64
	PagesPerFault float64 // fetch amplification = anonymity within code
}

// E8bResult is the ablation output.
type E8bResult struct {
	Rows    []E8bRow
	Metrics []CellMetrics
}

// RunE8CodeClusters renders a two-font text under three code-clustering
// choices. Two font libraries contend for an EPC quota that holds only one
// of them plus slack, so code pages must page in and out.
func RunE8CodeClusters(chars int) E8bResult {
	granularities := []string{"pinned", "per-library", "per-function"}
	rows, cm := runCells("E8b", len(granularities), func(i int, rec *cellRecorder) E8bRow {
		return runE8bOne(rec, granularities[i], chars)
	})
	return E8bResult{Rows: rows, Metrics: cm}
}

func runE8bOne(rec *cellRecorder, granularity string, chars int) E8bRow {
	libA := workloads.FreeTypeLibraryNamed("libfontA.so", 2)
	libB := workloads.FreeTypeLibraryNamed("libfontB.so", 2)
	if granularity == "per-library" {
		// Collapse the function lists so the loader builds one cluster per
		// whole library.
		libA = libos.Library{Name: libA.Name, Pages: libA.TotalPages()}
		libB = libos.Library{Name: libB.Name, Pages: libB.TotalPages()}
	}
	img := libos.AppImage{
		Name:      "freetype2f",
		Libraries: []libos.Library{libA, libB},
		HeapPages: 16,
	}
	rc := RunConfig{Config: libos.Config{
		SelfPaging:     true,
		Policy:         libos.PolicyClusters,
		RateLimitBurst: 1 << 40,
	}}
	if granularity != "pinned" {
		rc.CodeClusters = true
		// Quota holds the pinned stack, the heap, and ~1.3 font libraries:
		// the two fonts contend.
		rc.QuotaPages = 8 + 16 + libA.TotalPages() + libA.TotalPages()/3
	}

	var cycles uint64
	ops := 0
	result := RunApp(img, rc, func(p *libos.Process, ctx *core.Context) {
		ftA, err := workloads.BuildFreeTypeFrom(p, "libfontA.so", 2)
		if err != nil {
			panic(err)
		}
		ftB, err := workloads.BuildFreeTypeFrom(p, "libfontB.so", 2)
		if err != nil {
			panic(err)
		}
		rng := sim.NewRand(0xE8B)
		clk := p.Kernel.Clock
		t0 := clk.Cycles()
		// Alternate fonts in runs of 16 glyphs (styled text), forcing the
		// working set to hop between the two libraries.
		for i := 0; i < chars; i++ {
			ft := ftA
			if (i/16)%2 == 1 {
				ft = ftB
			}
			g := rune(0x20 + rng.Intn(workloads.FreeTypeGlyphs))
			if err := ft.Render(ctx, g); err != nil {
				panic(err)
			}
			ctx.Progress(1)
		}
		cycles = clk.Cycles() - t0
		ops = chars
	})
	rec.record("", result.Metrics)
	if result.Err != nil {
		panic(fmt.Sprintf("E8b %s: %v", granularity, result.Err))
	}
	row := E8bRow{
		Granularity: granularity,
		KopsPerSec:  float64(ops) / 1e3 / Seconds(cycles),
		Faults:      result.Metrics.Counter(metrics.CntSelfFaults),
	}
	if row.Faults > 0 {
		row.PagesPerFault = float64(result.Metrics.Counter(metrics.CntPagesFetched)) / float64(row.Faults)
	}
	return row
}

// Table renders the ablation.
func (r E8bResult) Table() *Table {
	t := &Table{
		Title:  "E8b: code-cluster granularity on FreeType under EPC pressure (§5.2.3)",
		Note:   "per-function clusters page fastest but leak control flow; per-library clusters\ntrade throughput for anonymity; pinning (Table 2) removes both",
		Header: []string{"granularity", "kops/s", "code faults", "pages fetched/fault"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Granularity, F(row.KopsPerSec),
			fmt.Sprintf("%d", row.Faults), F(row.PagesPerFault))
	}
	t.Metrics = r.Metrics
	return t
}
