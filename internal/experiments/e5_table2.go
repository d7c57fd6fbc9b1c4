package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sim"
	"autarky/internal/workloads"
)

// E5 — Table 2: end-to-end performance of the three published
// controlled-channel victims under Autarky, with the two proposed hardware
// optimizations ("no upcall" = in-enclave resume; "no upcall/AEX" = elided
// AEX):
//
//   - libjpeg: decode→invert→encode of an image whose decoded form exceeds
//     EPC; the output buffer is insensitive and released to OS management
//     (paper: −18% / −6% / +3% vs unprotected).
//   - Hunspell: spell-check against 15 dictionaries exceeding EPC, one
//     manual cluster per dictionary (paper: −25% / −16% / −9%).
//   - FreeType: glyph rendering with all pages pinned (paper: 1× across
//     the board — zero faults).

// E5Variant is one configuration column.
type E5Variant struct {
	Name       string
	Throughput float64 // workload-specific unit
	VsBase     float64 // ratio vs unprotected
	Faults     uint64
}

// E5Row is one workload's row.
type E5Row struct {
	Workload     string
	Unit         string
	ManagedPages int
	Variants     []E5Variant // unprotected, autarky, no-upcall, no-upcall/AEX
}

// E5Result is the experiment output.
type E5Result struct {
	Rows    []E5Row
	Metrics []CellMetrics
}

// E5Params scales the scenarios.
type E5Params struct {
	JPEGBlocksH   int
	HunspellDicts int
	HunspellWords int // words spell-checked
	FreeTypeChars int
	Seed          uint64
}

// DefaultE5Params returns the test-scale configuration.
func DefaultE5Params() E5Params {
	return E5Params{JPEGBlocksH: 64, HunspellDicts: 15, HunspellWords: 1200, FreeTypeChars: 1500, Seed: 0xE5}
}

func e5Variants() []RunConfig {
	return []RunConfig{
		{Config: libos.Config{SelfPaging: false}},
		{Config: libos.Config{SelfPaging: true}},
		{Config: libos.Config{SelfPaging: true, InEnclaveResume: true}},
		{Config: libos.Config{SelfPaging: true, ElideAEX: true}},
	}
}

func variantName(i int) string {
	return [...]string{"unprotected", "autarky", "no-upcall", "no-upcall/AEX"}[i]
}

// e5Cell is one (workload, variant) measurement.
type e5Cell struct {
	variant E5Variant
	managed int
	m       metrics.Snapshot
}

// RunE5 executes all three scenarios. Every (workload, variant) column is
// an independent cell on the ambient pool — 12 machines in total.
func RunE5(p E5Params) E5Result {
	kinds := []struct {
		workload string
		unit     string
		run      func(E5Params, int) e5Cell
	}{
		{"libjpeg", "MB/s", runE5JPEGVariant},
		{"Hunspell", "kwd/s", runE5HunspellVariant},
		{"FreeType", "kop/s", runE5FreeTypeVariant},
	}
	nv := len(e5Variants())
	cells, cm := runCells("E5", len(kinds)*nv, func(i int, rec *cellRecorder) e5Cell {
		c := kinds[i/nv].run(p, i%nv)
		rec.record("", c.m)
		return c
	})
	res := E5Result{Metrics: cm}
	for w, kind := range kinds {
		row := E5Row{Workload: kind.workload, Unit: kind.unit}
		for v := 0; v < nv; v++ {
			c := cells[w*nv+v]
			row.Variants = append(row.Variants, c.variant)
			if c.managed > 0 {
				row.ManagedPages = c.managed
			}
		}
		fillVsBase(&row)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// --- libjpeg -----------------------------------------------------------

func runE5JPEGVariant(p E5Params, vi int) e5Cell {
	jcfg := workloads.JPEGConfig{
		BlocksW:             64,
		BlocksH:             p.JPEGBlocksH,
		BusyFraction:        0.4,
		TmpPages:            8,
		OutPagesPerBlockRow: 4,
		Seed:                p.Seed,
	}
	outPages := jcfg.OutPagesPerBlockRow * jcfg.BlocksH
	inPages := (jcfg.BlocksW*jcfg.BlocksH+255)/256 + 1
	heap := outPages + jcfg.TmpPages + inPages + 8
	// Quota: everything but most of the output buffer stays resident.
	quota := 12 + jcfg.TmpPages + inPages + 8 + outPages/4
	imageBytes := float64(outPages * 4096)

	rc := e5Variants()[vi]
	rc.Policy = libos.PolicyRateLimit
	rc.RateLimitBurst = 1 << 40
	rc.QuotaPages = quota
	img := libos.AppImage{
		Name:      "libjpeg",
		Libraries: []libos.Library{{Name: "libjpeg.so", Pages: 4}},
		HeapPages: heap,
	}
	var cycles uint64
	managed := 0
	res := RunApp(img, rc, func(proc *libos.Process, ctx *core.Context) {
		j, err := workloads.BuildJPEG(proc, jcfg)
		if err != nil {
			panic(err)
		}
		if rc.SelfPaging {
			// The enlightened change (paper's 2 LoC): pin the
			// access-pattern-sensitive working buffers, and release the
			// decoded output buffer — whose access pattern is data
			// independent — to OS management for ordinary paging.
			if err := ctx.ManagePages(j.TmpPages(), mmu.PermRW, true); err != nil {
				panic(err)
			}
			if err := ctx.ReleasePages(j.OutPages()); err != nil {
				panic(err)
			}
			if err := proc.Runtime.EnsurePinnedResident(); err != nil {
				panic(err)
			}
			managed = proc.Runtime.ResidentManagedPages()
		}
		clk := proc.Kernel.Clock
		t0 := clk.Cycles()
		j.Decode(ctx)
		j.Invert(ctx)
		j.Encode(ctx)
		cycles = clk.Cycles() - t0
	})
	if res.Err != nil {
		panic(fmt.Sprintf("E5 libjpeg %s: %v", variantName(vi), res.Err))
	}
	return e5Cell{
		variant: E5Variant{
			Name:       variantName(vi),
			Throughput: imageBytes / 1e6 / Seconds(cycles),
			Faults:     res.Faults(),
		},
		managed: managed,
		m:       res.Metrics,
	}
}

// --- Hunspell ------------------------------------------------------------

func runE5HunspellVariant(p E5Params, vi int) e5Cell {
	hcfg := workloads.HunspellConfig{
		Langs:          make([]string, p.HunspellDicts),
		WordsPerDict:   1500,
		BucketsPerDict: 512,
		PagesPerDict:   40,
	}
	hcfg.Langs[0] = "en_US"
	for i := 1; i < len(hcfg.Langs); i++ {
		hcfg.Langs[i] = fmt.Sprintf("lang_%02d", i)
	}
	totalDictPages := len(hcfg.Langs) * hcfg.PagesPerDict
	heap := totalDictPages + 16
	quota := 12 + totalDictPages/4

	rc := e5Variants()[vi]
	rc.Policy = libos.PolicyClusters
	rc.QuotaPages = quota
	img := libos.AppImage{
		Name:      "hunspell",
		Libraries: []libos.Library{{Name: "libhunspell.so", Pages: 6}},
		HeapPages: heap,
	}
	var cycles uint64
	words := 0
	managed := 0
	res := RunApp(img, rc, func(proc *libos.Process, ctx *core.Context) {
		clk := proc.Kernel.Clock
		// Pessimistically include dictionary loading, like the paper.
		t0 := clk.Cycles()
		h, err := workloads.BuildHunspell(proc, ctx, hcfg)
		if err != nil {
			panic(err)
		}
		if rc.SelfPaging {
			// Manual clustering: one cluster per dictionary (§7.3).
			for _, lang := range hcfg.Langs {
				id := proc.Reg.NewCluster(0)
				for _, va := range h.Dicts[lang].Pages() {
					if err := proc.Reg.AddPage(id, va.VPN()); err != nil {
						panic(err)
					}
				}
			}
			managed = proc.Runtime.ResidentManagedPages()
		}
		// The text: words sampled from en_US (assume correct spelling,
		// like the published attack).
		rng := sim.NewRand(p.Seed)
		text := make([]string, p.HunspellWords)
		for w := range text {
			text[w] = workloads.Word("en_US", rng.Intn(hcfg.WordsPerDict))
		}
		if _, err := h.CheckText(ctx, "en_US", text); err != nil {
			panic(err)
		}
		cycles = clk.Cycles() - t0
		words = len(text)
	})
	if res.Err != nil {
		panic(fmt.Sprintf("E5 hunspell %s: %v", variantName(vi), res.Err))
	}
	return e5Cell{
		variant: E5Variant{
			Name:       variantName(vi),
			Throughput: float64(words) / 1e3 / Seconds(cycles),
			Faults:     res.Faults(),
		},
		managed: managed,
		m:       res.Metrics,
	}
}

// --- FreeType -------------------------------------------------------------

func runE5FreeTypeVariant(p E5Params, vi int) e5Cell {
	rc := e5Variants()[vi]
	rc.Policy = libos.PolicyPinAll
	// Everything pinned and resident: no quota pressure.
	img := libos.AppImage{
		Name:      "freetype",
		Libraries: []libos.Library{workloads.FreeTypeLibrary(4)},
		HeapPages: 16,
	}
	var cycles uint64
	ops := 0
	managed := 0
	res := RunApp(img, rc, func(proc *libos.Process, ctx *core.Context) {
		ft, err := workloads.BuildFreeType(proc, 4)
		if err != nil {
			panic(err)
		}
		if rc.SelfPaging {
			managed = proc.Runtime.ResidentManagedPages()
		}
		rng := sim.NewRand(p.Seed)
		text := make([]byte, p.FreeTypeChars)
		for j := range text {
			text[j] = byte(0x20 + rng.Intn(workloads.FreeTypeGlyphs))
		}
		clk := proc.Kernel.Clock
		t0 := clk.Cycles()
		if err := ft.RenderText(ctx, string(text)); err != nil {
			panic(err)
		}
		cycles = clk.Cycles() - t0
		ops = len(text)
	})
	if res.Err != nil {
		panic(fmt.Sprintf("E5 freetype %s: %v", variantName(vi), res.Err))
	}
	return e5Cell{
		variant: E5Variant{
			Name:       variantName(vi),
			Throughput: float64(ops) / 1e3 / Seconds(cycles),
			Faults:     res.Faults(),
		},
		managed: managed,
		m:       res.Metrics,
	}
}

func fillVsBase(row *E5Row) {
	base := row.Variants[0].Throughput
	for i := range row.Variants {
		row.Variants[i].VsBase = row.Variants[i].Throughput / base
	}
}

// Table renders the result.
func (r E5Result) Table() *Table {
	t := &Table{
		Title:  "E5 / Table 2: end-to-end protected applications",
		Note:   "paper: libjpeg -18%/-6%/+3%; Hunspell -25%/-16%/-9%; FreeType 1x/1x/1x",
		Header: []string{"workload", "unit", "managed pages", "unprotected", "autarky", "no-upcall", "no-upcall/AEX", "faults(autarky)"},
	}
	for _, row := range r.Rows {
		cells := []string{row.Workload, row.Unit, fmt.Sprintf("%d", row.ManagedPages),
			F(row.Variants[0].Throughput)}
		for _, v := range row.Variants[1:] {
			cells = append(cells, fmt.Sprintf("%s (%s)", F(v.Throughput), Pct(v.VsBase)))
		}
		cells = append(cells, fmt.Sprintf("%d", row.Variants[1].Faults))
		t.AddRow(cells...)
	}
	t.Metrics = r.Metrics
	return t
}
