package experiments

import (
	"strings"
	"testing"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/trace"
)

// These tests assert the paper's qualitative claims — who wins, by roughly
// what factor, where crossovers fall — against the model's output. They are
// the automated check that the reproduction tracks the paper's evaluation.

func TestE1OverheadIsNegligible(t *testing.T) {
	r := RunE1(2)
	if len(r.Rows) != 10 {
		t.Fatalf("%d nbench kernels, want 10", len(r.Rows))
	}
	if r.GeomeanPct <= 0 {
		t.Fatalf("geomean %.3f%%: the A/D check must cost something", r.GeomeanPct)
	}
	if r.GeomeanPct > 1.0 {
		t.Fatalf("geomean %.3f%% — paper reports 0.07%%, must stay below 1%%", r.GeomeanPct)
	}
	// Orders of magnitude below T-SGX's ~50%.
	if r.GeomeanPct > r.TSGXPercent/10 {
		t.Fatalf("geomean %.3f%% not clearly below T-SGX's %.0f%%", r.GeomeanPct, r.TSGXPercent)
	}
	for _, row := range r.Rows {
		if row.SlowdownPct < 0 {
			t.Errorf("%s sped up (%.3f%%) with the check enabled", row.Kernel, row.SlowdownPct)
		}
		if row.TLBFillADs == 0 {
			t.Errorf("%s performed no A/D checks", row.Kernel)
		}
	}
}

func TestE2PagingLatencyShape(t *testing.T) {
	r := RunE2(5)
	if len(r.Stacks) != 4 {
		t.Fatalf("%d stacks, want 4", len(r.Stacks))
	}
	byKey := map[string]E2Stack{}
	for _, s := range r.Stacks {
		byKey[s.Mech+"/"+s.Op] = s
	}
	f1 := byKey["SGX1/page-fault"]
	f2 := byKey["SGX2/page-fault"]
	e1 := byKey["SGX1/page-evict"]
	e2 := byKey["SGX2/page-evict"]

	// Paper: total ~25-31k cycles per page.
	for _, s := range []E2Stack{f1, f2} {
		if s.Total < 15_000 || s.Total > 45_000 {
			t.Errorf("%s/%s total %d outside the paper's ballpark", s.Mech, s.Op, s.Total)
		}
		// Preemption + handler invocation account for 40-50% of latency.
		frac := float64(s.Preempt+s.Invoc) / float64(s.Total)
		if frac < 0.35 || frac < 0.0 || frac > 0.70 {
			t.Errorf("%s transition fraction %.2f outside 0.35-0.70", s.Mech, frac)
		}
	}
	// SGX2 eviction pays the extra enclave crossings (§7.1: SGXv1 is more
	// efficient and used for the rest of the evaluation).
	if e2.Total <= e1.Total {
		t.Errorf("SGX2 evict (%d) not costlier than SGX1 (%d)", e2.Total, e1.Total)
	}
	// The measured per-fault cost must be consistent with the analytic
	// stack (fetch + amortized evict + retry overhead).
	for _, s := range []E2Stack{f1, f2} {
		if s.Measured < float64(s.Total) {
			t.Errorf("%s measured %f below analytic fetch %d", s.Mech, s.Measured, s.Total)
		}
		if s.Measured > 2.2*float64(s.Total) {
			t.Errorf("%s measured %f more than 2.2x analytic %d", s.Mech, s.Measured, s.Total)
		}
	}
}

func TestE3ClusterSweepShape(t *testing.T) {
	p := DefaultE3Params()
	p.Items = 4096
	p.Lookups = 500
	p.UncachedOps = 40
	r := RunE3(p)
	if len(r.ClusterSizes) < 4 {
		t.Fatalf("sweep too small: %v", r.ClusterSizes)
	}
	// Throughput decreases as clusters grow (inverse proportionality).
	for i := 1; i < len(r.Fresh); i++ {
		if r.Fresh[i].ReqPerSec >= r.Fresh[i-1].ReqPerSec {
			t.Errorf("throughput not decreasing: %s %.0f -> %s %.0f",
				r.Fresh[i-1].Config, r.Fresh[i-1].ReqPerSec, r.Fresh[i].Config, r.Fresh[i].ReqPerSec)
		}
	}
	// Rehashing shortens chains and improves every cluster size.
	for i := range r.Fresh {
		if r.Rehashed[i].ReqPerSec <= r.Fresh[i].ReqPerSec {
			t.Errorf("rehash did not help at %s: %.0f vs %.0f",
				r.Fresh[i].Config, r.Rehashed[i].ReqPerSec, r.Fresh[i].ReqPerSec)
		}
	}
	// Cached ORAM is orders of magnitude faster than uncached (paper 232x;
	// the model reproduces >20x).
	ratio := r.ORAMCached.ReqPerSec / r.ORAMUncached.ReqPerSec
	if ratio < 20 {
		t.Errorf("cached/uncached = %.1fx, want orders of magnitude", ratio)
	}
	// The cached-ORAM line crosses the cluster sweep somewhere inside it:
	// faster than the biggest clusters, slower than 1-page clusters.
	if r.ORAMCached.ReqPerSec >= r.Fresh[0].ReqPerSec {
		t.Errorf("cached ORAM (%.0f) beats 1-page clusters (%.0f) — crossover lost",
			r.ORAMCached.ReqPerSec, r.Fresh[0].ReqPerSec)
	}
	last := r.Fresh[len(r.Fresh)-1]
	if r.ORAMCached.ReqPerSec <= last.ReqPerSec {
		t.Errorf("cached ORAM (%.0f) loses to %s (%.0f) — crossover lost",
			r.ORAMCached.ReqPerSec, last.Config, last.ReqPerSec)
	}
}

func TestE4RateLimitedPagingShape(t *testing.T) {
	r := RunE4(1)
	if len(r.Rows) != 14 {
		t.Fatalf("%d apps, want 14", len(r.Rows))
	}
	if r.GeomeanSlow < 1.0 || r.GeomeanSlow > 1.40 {
		t.Fatalf("geomean slowdown %.2fx outside the paper's shape (small mean)", r.GeomeanSlow)
	}
	// The AEX-elision estimate lands near zero overhead (paper: 2%).
	if r.GeomeanElide > 1.06 || r.GeomeanElide < 0.90 {
		t.Fatalf("elided geomean %.2fx, want ~1.0", r.GeomeanElide)
	}
	var maxSlow, maxSlowRate float64
	var maxRate float64
	for _, row := range r.Rows {
		if row.Slowdown < 0.95 {
			t.Errorf("%s faster under autarky (%.2fx)?", row.App, row.Slowdown)
		}
		if row.Slowdown > 1.6 {
			t.Errorf("%s slowdown %.2fx beyond the paper's range", row.App, row.Slowdown)
		}
		if row.Slowdown > maxSlow {
			maxSlow, maxSlowRate = row.Slowdown, row.FaultsPerSec
		}
		if row.FaultsPerSec > maxRate {
			maxRate = row.FaultsPerSec
		}
	}
	// Slowdown correlates with fault rate: the worst app must be in the
	// upper half of fault rates.
	if maxSlowRate < maxRate/3 {
		t.Errorf("worst slowdown at fault rate %.0f while max is %.0f — no correlation", maxSlowRate, maxRate)
	}
	// At least one app pages essentially not at all (swaptions-like) and
	// stays near 1.0x.
	found := false
	for _, row := range r.Rows {
		if row.Slowdown < 1.02 {
			found = true
		}
	}
	if !found {
		t.Error("no fault-free app near 1.0x")
	}
}

func TestE5Table2Shape(t *testing.T) {
	p := DefaultE5Params()
	p.JPEGBlocksH = 48
	p.HunspellWords = 800
	p.FreeTypeChars = 800
	r := RunE5(p)
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	byName := map[string]E5Row{}
	for _, row := range r.Rows {
		byName[row.Workload] = row
		// Optimization monotonicity: autarky <= no-upcall <= no-upcall/AEX.
		if row.Variants[2].Throughput < row.Variants[1].Throughput {
			t.Errorf("%s: no-upcall slower than base autarky", row.Workload)
		}
		if row.Variants[3].Throughput < row.Variants[2].Throughput {
			t.Errorf("%s: elided AEX slower than no-upcall", row.Workload)
		}
	}
	// libjpeg: paper -18%.
	if v := byName["libjpeg"].Variants[1].VsBase; v < 0.70 || v > 0.92 {
		t.Errorf("libjpeg autarky %.2fx of baseline, paper ~0.82x", v)
	}
	// Hunspell: paper -25%.
	if v := byName["Hunspell"].Variants[1].VsBase; v < 0.60 || v > 0.90 {
		t.Errorf("hunspell autarky %.2fx of baseline, paper ~0.75x", v)
	}
	// FreeType: zero faults, 1x across the board.
	ft := byName["FreeType"]
	if ft.Variants[1].Faults != 0 {
		t.Errorf("freetype faulted %d times", ft.Variants[1].Faults)
	}
	for _, v := range ft.Variants[1:] {
		if v.VsBase < 0.99 || v.VsBase > 1.01 {
			t.Errorf("freetype %s = %.3fx, want 1x", v.Name, v.VsBase)
		}
	}
}

func TestE6MemcachedShape(t *testing.T) {
	p := DefaultE6Params()
	p.Items = 2048
	p.Requests = 2500
	r := RunE6(p)
	if len(r.Rows) != 16 {
		t.Fatalf("%d cells", len(r.Rows))
	}
	cell := func(dist int, cfg string) E6Row {
		for j, c := range e6Configs {
			if c == cfg {
				return r.Rows[dist*4+j]
			}
		}
		t.Fatalf("no config %s", cfg)
		return E6Row{}
	}
	for dist := 0; dist < 4; dist++ {
		base := cell(dist, "baseline")
		rl := cell(dist, "rate-limit")
		cl := cell(dist, "cluster-10")
		or := cell(dist, "oram")
		if rl.ReqPerSec > base.ReqPerSec*1.01 {
			t.Errorf("%s: rate-limit beats the insecure baseline", base.Distribution)
		}
		if cl.ReqPerSec > rl.ReqPerSec*1.02 {
			t.Errorf("%s: clusters beat rate-limit", base.Distribution)
		}
		if or.ReqPerSec > base.ReqPerSec*1.01 {
			t.Errorf("%s: ORAM beats the insecure baseline", base.Distribution)
		}
	}
	// Under uniform access clusters beat ORAM; the gap diminishes with
	// skew, and on the hottest mix they are within ~15% of each other.
	if cell(0, "oram").ReqPerSec >= cell(0, "cluster-10").ReqPerSec {
		t.Error("uniform: ORAM not behind clusters")
	}
	uniformRatio := cell(0, "oram").VsBaseline
	hotRatio := cell(3, "oram").VsBaseline
	if hotRatio <= uniformRatio {
		t.Errorf("ORAM-vs-baseline did not improve with skew: %.2f -> %.2f", uniformRatio, hotRatio)
	}
	// Paper: ORAM within 60% of baseline on the hottest distribution; the
	// model does at least as well.
	if hotRatio < 0.40 {
		t.Errorf("hotspot(0.99) ORAM at %.2fx of baseline, want >= 0.40", hotRatio)
	}
}

func TestE7AttacksSucceedOnVanillaAndFailOnAutarky(t *testing.T) {
	r := RunE7()
	if len(r.Scenarios) != 5+len(e7Orderings()) {
		t.Fatalf("%d scenarios", len(r.Scenarios))
	}
	for _, s := range r.Scenarios {
		ordering := strings.HasPrefix(s.Name, "ordering/")
		if s.VanillaRecovery < 0.9 && s.VanillaRecovery >= 0 {
			t.Errorf("%s: vanilla recovery %.0f%%, want >= 90%%", s.Name, s.VanillaRecovery*100)
		}
		if s.VanillaDetected {
			t.Errorf("%s: vanilla SGX cannot detect the attack", s.Name)
		}
		if ordering {
			// Ordering attacks end in a refusal or a termination — never in
			// the final adversarial step silently succeeding.
			if s.AutarkyOutcome == "" || strings.HasPrefix(s.AutarkyOutcome, "UNDETECTED") {
				t.Errorf("%s: Autarky outcome %q", s.Name, s.AutarkyOutcome)
			}
		} else if !s.AutarkyTerminated {
			t.Errorf("%s: Autarky did not terminate", s.Name)
		}
		if s.AutarkyRecovery != 0 {
			t.Errorf("%s: attacker recovered %.0f%% under Autarky", s.Name, s.AutarkyRecovery*100)
		}
		if !s.MaskedOnly {
			t.Errorf("%s: OS observed unmasked fault addresses", s.Name)
		}
		// Every direct attack induces a fault under Autarky, so its masking
		// verdict is measured on a non-empty record.
		if !ordering && s.AutarkyFaults == 0 {
			t.Errorf("%s: the Autarky OS observed no enclave fault", s.Name)
		}
	}
}

// TestObservedRecordDoesNotChangeTheRun pins the kernel record's contract:
// attaching it changes no simulated result. A rate-limited SGXv1 enclave
// under quota pressure both faults and pages in.
func TestObservedRecordDoesNotChangeTheRun(t *testing.T) {
	img := libos.AppImage{Name: "rec", Libraries: []libos.Library{{Name: "librec.so", Pages: 4}}, HeapPages: 48}
	rc := RunConfig{Config: libos.Config{
		SelfPaging: true, Mech: core.MechSGX1, Policy: libos.PolicyRateLimit,
		RateLimitBurst: 1 << 40, QuotaPages: 24,
	}}
	run := func(seen *trace.Log) metrics.Snapshot {
		p, err := BuildProcess(img, rc)
		if err != nil {
			t.Fatal(err)
		}
		p.Kernel.Observed = seen
		if err := p.Run(func(ctx *core.Context) {
			for pass := 0; pass < 3; pass++ {
				for _, va := range p.Heap.PageVAs() {
					ctx.Store(va)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return metrics.Of(p.Kernel.Clock).Snapshot()
	}
	seen := &trace.Log{}
	if recorded, bare := run(seen), run(nil); recorded != bare {
		t.Fatalf("recording changed the run:\nrecorded %+v\nbare     %+v", recorded, bare)
	}
	faults, pageIns := seen.Only(trace.KindFault), seen.Only(trace.KindPageIn)
	if faults.Len() == 0 || pageIns.Len() == 0 {
		t.Fatalf("record holds %d faults and %d page-ins, want both", faults.Len(), pageIns.Len())
	}
	if faults.Len()+pageIns.Len() != seen.Len() {
		t.Fatalf("record holds %d events of other kinds", seen.Len()-faults.Len()-pageIns.Len())
	}
}

func TestE8AblationShape(t *testing.T) {
	r := RunE8(5)
	byKey := map[string]E8FaultPath{}
	for _, f := range r.FaultPath {
		byKey[f.Mech+"/"+f.Variant] = f
	}
	for _, mech := range []string{"SGX1", "SGX2"} {
		base := byKey[mech+"/baseline-flow"]
		noUp := byKey[mech+"/in-enclave-resume"]
		elide := byKey[mech+"/elide-AEX"]
		classic := byKey[mech+"/classic-ocalls"]
		if !(elide.CyclesPerFlt < noUp.CyclesPerFlt && noUp.CyclesPerFlt < base.CyclesPerFlt) {
			t.Errorf("%s optimization ordering broken: %.0f / %.0f / %.0f",
				mech, base.CyclesPerFlt, noUp.CyclesPerFlt, elide.CyclesPerFlt)
		}
		// §6: classic OCALLs would make every driver call an enclave
		// crossing — strictly worse than the exitless baseline.
		if classic.CyclesPerFlt <= base.CyclesPerFlt {
			t.Errorf("%s classic OCALLs (%.0f) not costlier than exitless (%.0f)",
				mech, classic.CyclesPerFlt, base.CyclesPerFlt)
		}
	}
	// CLOCK (with A/D hints) never does worse than FIFO on these
	// locality-friendly kernels.
	for i := 0; i < len(r.Eviction); i += 2 {
		clock, fifo := r.Eviction[i], r.Eviction[i+1]
		if clock.Faults > fifo.Faults {
			t.Errorf("%s: CLOCK faulted more (%d) than FIFO (%d)", clock.App, clock.Faults, fifo.Faults)
		}
	}
}

func TestE7TerminationAttackIsBitLimited(t *testing.T) {
	r := RunE7Termination()
	if !r.MaskedWhenFatal {
		t.Fatal("a fatal fault leaked an unmasked address")
	}
	if !r.PageLocalized {
		t.Fatal("the binary search failed — the residual 1-bit channel should still localize a page")
	}
	// One bit per lifetime: localizing one page of N costs ~log2(N)
	// restarts, never fewer.
	if r.RestartsUsed < r.TheoreticalMin {
		t.Fatalf("localized with %d restarts, below the information-theoretic %d — more than 1 bit leaked per lifetime",
			r.RestartsUsed, r.TheoreticalMin)
	}
	// And the §3 restart monitor flags the harvesting well before it ends.
	if !r.MonitorFlagged {
		t.Fatal("restart storm not flagged")
	}
	if r.FlaggedAtRun > r.MonitorBudget+1 {
		t.Fatalf("flagged only at run %d with budget %d", r.FlaggedAtRun, r.MonitorBudget)
	}
}

func TestE9ConclusionsStableUnderCostPerturbation(t *testing.T) {
	r := RunE9()
	if len(r.Rows) != 4 {
		t.Fatalf("%d perturbation points", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Autarky always costs something under paging, never a blowup.
		if row.JPEGOverheadPct < 1 || row.JPEGOverheadPct > 60 {
			t.Errorf("at %d%% costs, overhead %.1f%% flips the conclusion", row.ScalePct, row.JPEGOverheadPct)
		}
		// Transitions remain the dominant share of per-fault latency.
		if row.TransitionsShare < 0.30 || row.TransitionsShare > 0.80 {
			t.Errorf("at %d%% costs, transition share %.2f leaves the paper's band", row.ScalePct, row.TransitionsShare)
		}
	}
	// Overhead grows monotonically with transition costs (the mechanism the
	// paper's optimizations target).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].JPEGOverheadPct <= r.Rows[i-1].JPEGOverheadPct {
			t.Errorf("overhead not monotone in transition costs: %+v", r.Rows)
		}
	}
}

func TestE6MixedWorkloadsKeepPolicyOrdering(t *testing.T) {
	p := DefaultE6Params()
	p.Items = 2048
	p.Requests = 2000
	r := RunE6Mixed(p)
	if len(r.Rows) != 8 {
		t.Fatalf("%d cells", len(r.Rows))
	}
	for i := 0; i < len(r.Rows); i += 4 {
		base, rl, cl, or := r.Rows[i], r.Rows[i+1], r.Rows[i+2], r.Rows[i+3]
		if rl.ReqPerSec > base.ReqPerSec*1.01 {
			t.Errorf("%s: rate-limit beats baseline", base.Workload)
		}
		if cl.ReqPerSec > rl.ReqPerSec*1.02 {
			t.Errorf("%s: clusters beat rate-limit", base.Workload)
		}
		if or.ReqPerSec > cl.ReqPerSec*1.05 {
			t.Errorf("%s: ORAM beats clusters under Zipf with writes", base.Workload)
		}
	}
	// More writes -> slower everywhere (writeback pressure).
	for j := 0; j < 4; j++ {
		if r.Rows[j].ReqPerSec > r.Rows[4+j].ReqPerSec*1.05 {
			// A (50/50) should not be meaningfully faster than B (95/5).
			continue
		}
	}
}

func TestE7LeakageHierarchy(t *testing.T) {
	r := RunE7Leakage()
	byName := map[string]E7cRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
	}
	pin := byName["pin-all"]
	cl := byName["clusters(dict)"]
	rl := byName["rate-limit"]
	// Pin-all: nothing fetched, the attacker is left with the whole corpus.
	if pin.FetchesSeen != 0 {
		t.Fatalf("pin-all leaked %d fetches", pin.FetchesSeen)
	}
	if pin.MeanCandidate != float64(pin.Corpus) {
		t.Fatalf("pin-all anonymity %f, want full corpus %d", pin.MeanCandidate, pin.Corpus)
	}
	// The §5.3 hierarchy: pin-all > clusters > rate-limit.
	if !(pin.MeanCandidate > cl.MeanCandidate && cl.MeanCandidate > rl.MeanCandidate) {
		t.Fatalf("hierarchy broken: pin=%f clusters=%f rate=%f",
			pin.MeanCandidate, cl.MeanCandidate, rl.MeanCandidate)
	}
	// Clusters: when the OS observes anything, it sees a whole dictionary
	// fetched — the anonymity set is one dictionary (a quarter of the
	// 4-dictionary corpus).
	dict := float64(cl.Corpus) / 4
	if cl.MeanWhenObserved < dict*0.9 || cl.MeanWhenObserved > dict*1.6 {
		t.Errorf("cluster observed-anonymity %f not ~1 dictionary (%f)", cl.MeanWhenObserved, dict)
	}
	// Rate-limit: page-level candidates, far below one dictionary.
	if rl.MeanWhenObserved >= cl.MeanWhenObserved/2 {
		t.Errorf("rate-limit observed-anonymity %f not well below clusters %f", rl.MeanWhenObserved, cl.MeanWhenObserved)
	}
}

func TestE8CodeClusterGranularity(t *testing.T) {
	r := RunE8CodeClusters(600)
	byG := map[string]E8bRow{}
	for _, row := range r.Rows {
		byG[row.Granularity] = row
	}
	pinned := byG["pinned"]
	perLib := byG["per-library"]
	perFn := byG["per-function"]
	if pinned.Faults != 0 {
		t.Fatalf("pinned code faulted %d times", pinned.Faults)
	}
	// §5.2.3: finer clusters page faster than whole-library clusters…
	if perFn.KopsPerSec <= perLib.KopsPerSec {
		t.Fatalf("per-function (%.0f kops) not faster than per-library (%.0f)",
			perFn.KopsPerSec, perLib.KopsPerSec)
	}
	// …and pinning beats both.
	if pinned.KopsPerSec <= perFn.KopsPerSec {
		t.Fatalf("pinned (%.0f) not fastest", pinned.KopsPerSec)
	}
	// The anonymity trade: a library-cluster fault fetches the whole
	// library; a function-cluster fault fetches ~1 page.
	if perLib.PagesPerFault < 20 {
		t.Fatalf("per-library fetch amplification %.1f too small", perLib.PagesPerFault)
	}
	if perFn.PagesPerFault > 3 {
		t.Fatalf("per-function fetch amplification %.1f too large", perFn.PagesPerFault)
	}
}
