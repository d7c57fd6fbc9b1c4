package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/workloads"
)

// E8 — ablations over the design choices DESIGN.md calls out:
//
//   - the fault-path optimizations of §5.1.3 (in-enclave resume, elided
//     AEX), measured as per-fault latency on the Fig.5 microbenchmark;
//   - SGXv1 vs SGXv2 paging mechanisms (§6/§7.1);
//   - victim-selection policy: the legacy baseline's CLOCK (needs A/D
//     bits) vs Autarky's FIFO (A/D architecturally unusable, §5.1.4),
//     measured as fault counts on a locality-heavy workload.

// E8Result is the experiment output.
type E8Result struct {
	// Per-fault latency by optimization level (SGXv1).
	FaultPath []E8FaultPath
	// Fault counts by eviction policy.
	Eviction []E8Eviction
	Metrics  []CellMetrics
}

// E8FaultPath is one optimization level's per-fault cost.
type E8FaultPath struct {
	Variant       string
	Mech          string
	CyclesPerFlt  float64
	VsUnoptimized float64
}

// E8Eviction compares victim selection.
type E8Eviction struct {
	App     string
	Policy  string
	Faults  uint64
	PageIns uint64
}

// RunE8 executes the ablations.
func RunE8(rounds int) E8Result {
	var res E8Result

	type variant struct {
		name string
		rc   RunConfig
	}
	base := RunConfig{
		Config: libos.Config{
			SelfPaging:     true,
			Policy:         libos.PolicyRateLimit,
			RateLimitBurst: 1 << 40,
			QuotaPages:     12 + 24,
		},
		EvictBatch: 16,
	}
	variants := []variant{
		{"baseline-flow", base},
		{"in-enclave-resume", func() RunConfig { rc := base; rc.InEnclaveResume = true; return rc }()},
		{"elide-AEX", func() RunConfig { rc := base; rc.ElideAEX = true; return rc }()},
		{"classic-ocalls", func() RunConfig { rc := base; rc.ClassicOCalls = true; return rc }()},
	}
	// One cell per (mechanism, variant) fault-path point; the vs-baseline
	// ratio is computed after ordered collection.
	mechs := []core.Mech{core.MechSGX1, core.MechSGX2}
	type e8fp struct {
		variant, mech string
		per           float64
	}
	nv := len(variants)
	fp, fpMetrics := runCells("E8-faultpath", len(mechs)*nv, func(i int, rec *cellRecorder) e8fp {
		mech, v := mechs[i/nv], variants[i%nv]
		rc := v.rc
		rc.Mech = mech
		r := runE8Sweep(rc, rounds)
		rec.record("", r.Metrics)
		return e8fp{variant: v.name, mech: mech.String(), per: float64(r.Cycles) / float64(r.Metrics.Counter(metrics.CntSelfFaults))}
	})
	for mi := range mechs {
		first := fp[mi*nv].per
		for vi := 0; vi < nv; vi++ {
			c := fp[mi*nv+vi]
			res.FaultPath = append(res.FaultPath, E8FaultPath{
				Variant:       c.variant,
				Mech:          c.mech,
				CyclesPerFlt:  c.per,
				VsUnoptimized: c.per / first,
			})
		}
	}

	// Eviction policy: the same locality-friendly kernel under the legacy
	// kernel's CLOCK and Autarky's FIFO. One cell per kernel.
	kernels := []workloads.Kernel{workloads.PARSEC()[0] /* btrack */, workloads.Phoenix()[0] /* kmeans */}
	evictions, evMetrics := runCells("E8-eviction", len(kernels), func(i int, rec *cellRecorder) [2]E8Eviction {
		k := kernels[i]
		quota := 12 + int(float64(k.ArenaPages)*E4QuotaFraction)
		legacy := RunKernel(k, RunConfig{Config: libos.Config{QuotaPages: quota}}, 1, 0xE8)
		autk := RunKernel(k, RunConfig{Config: libos.Config{
			SelfPaging: true, Policy: libos.PolicyRateLimit,
			RateLimitBurst: 1 << 40, QuotaPages: quota,
		}}, 1, 0xE8)
		rec.record("legacy", legacy.Metrics)
		rec.record("autk", autk.Metrics)
		if legacy.Err != nil || autk.Err != nil {
			panic(fmt.Sprintf("E8 eviction %s: %v %v", k.Name, legacy.Err, autk.Err))
		}
		return [2]E8Eviction{
			{App: k.Name, Policy: "CLOCK (legacy)", Faults: legacy.Faults(), PageIns: legacy.Metrics.Counter(metrics.CntOSPageIns)},
			{App: k.Name, Policy: "FIFO (autarky)", Faults: autk.Faults(), PageIns: autk.Metrics.Counter(metrics.CntPagesFetched)},
		}
	})
	for _, pair := range evictions {
		res.Eviction = append(res.Eviction, pair[0], pair[1])
	}
	res.Metrics = append(fpMetrics, evMetrics...)
	return res
}

func runE8Sweep(rc RunConfig, rounds int) RunResult {
	img := libos.AppImage{
		Name:      "e8",
		Libraries: []libos.Library{{Name: "libe8.so", Pages: 4}},
		HeapPages: 64,
	}
	return RunApp(img, rc, func(p *libos.Process, ctx *core.Context) {
		for r := 0; r < rounds; r++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
}

// Table renders the result.
func (r E8Result) Table() *Table {
	t := &Table{
		Title:  "E8: ablations — fault-path optimizations, paging mechanism, eviction policy",
		Header: []string{"ablation", "config", "metric", "value", "vs base"},
	}
	for _, f := range r.FaultPath {
		t.AddRow("fault-path", f.Mech+"/"+f.Variant, "cycles/fault", F(f.CyclesPerFlt), fmt.Sprintf("%.2fx", f.VsUnoptimized))
	}
	for _, e := range r.Eviction {
		t.AddRow("eviction", e.App+"/"+e.Policy, "faults", fmt.Sprintf("%d", e.Faults), "")
	}
	t.Metrics = r.Metrics
	return t
}
