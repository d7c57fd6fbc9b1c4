package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sim"
	"autarky/internal/workloads"
)

// EPCFrames is the physical EPC used by experiment machines; quotas (not
// physical capacity) are the paging pressure knob.
const EPCFrames = 1 << 16

// newHost builds one experiment machine on a fresh clock.
func newHost(costs sim.Costs) *hostos.Kernel {
	clock := sim.NewClock()
	// The ambient per-cell cycle budget (see SetCellBudget): a runaway
	// cell aborts its own machine instead of hanging the suite.
	clock.SetLimit(CellBudget())
	return hostos.NewHost(clock, costs, hostos.DefaultGeometry(EPCFrames), []byte("autarky-experiments-root"))
}

// RunConfig describes one enclave configuration under test.
type RunConfig struct {
	SelfPaging      bool
	InEnclaveResume bool
	ElideAEX        bool
	Mech            core.Mech
	Policy          libos.PolicyKind
	QuotaPages      int
	RateBurst       uint64
	RatePerProgress float64
	EvictBatch      int
	DataCluster     int
	CodeClusters    bool
	PinData         bool

	// ClassicOCalls replaces exitless host calls with classic OCALL round
	// trips (§6 ablation).
	ClassicOCalls bool
	// ADCheckCycles overrides the Autarky A/D-check cost (E1 sensitivity).
	ADCheckCycles *uint64
	// HeapPages overrides the image heap size.
	HeapPages int
	// Libraries overrides the image's libraries.
	Libraries []libos.Library
}

func (rc RunConfig) label() string {
	if !rc.SelfPaging {
		return "vanilla"
	}
	s := "autarky/" + rc.Policy.String()
	if rc.ElideAEX {
		s += "+noAEX"
	} else if rc.InEnclaveResume {
		s += "+noUpcall"
	}
	return s
}

// RunResult carries the measurements of one run.
type RunResult struct {
	Label     string
	Cycles    uint64 // application-phase cycles (excludes loading)
	Err       error
	Faults    uint64 // enclave page faults seen by hardware
	SelfPage  uint64 // runtime self-paging faults
	Forwarded uint64
	Fetched   uint64
	Evicted   uint64
	OSPageIns uint64
	AEXs      uint64
	Enters    uint64
	Resumes   uint64
	ADChecks  uint64
	Detected  uint64

	// Metrics is the machine's full metrics snapshot at the end of the run
	// (including loading), for per-cell reporting and invariant checks.
	Metrics metrics.Snapshot
}

// BuildProcess creates a fresh machine and loads an image under rc.
// The returned cleanup-free process is ready to Run.
func BuildProcess(img libos.AppImage, rc RunConfig) (*libos.Process, error) {
	costs := sim.DefaultCosts()
	if rc.ADCheckCycles != nil {
		costs.ADCheck = *rc.ADCheckCycles
	}
	k := newHost(costs)
	if rc.HeapPages > 0 {
		img.HeapPages = rc.HeapPages
	}
	if rc.Libraries != nil {
		img.Libraries = rc.Libraries
	}
	cfg := libos.Config{
		SelfPaging:           rc.SelfPaging,
		InEnclaveResume:      rc.InEnclaveResume,
		ElideAEX:             rc.ElideAEX,
		Mech:                 rc.Mech,
		QuotaPages:           rc.QuotaPages,
		Policy:               rc.Policy,
		RateLimitPerProgress: rc.RatePerProgress,
		RateLimitBurst:       rc.RateBurst,
		DataClusterPages:     rc.DataCluster,
		CodeClusters:         rc.CodeClusters,
		PinData:              rc.PinData,
	}
	k.ClassicOCalls = rc.ClassicOCalls
	p, err := libos.Load(k, img, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: load %s (%s): %w", img.Name, rc.label(), err)
	}
	if rc.EvictBatch > 1 {
		if rl, ok := p.Runtime.Policy.(*core.RateLimitPolicy); ok {
			rl.EvictBatch = rc.EvictBatch
		}
	}
	return p, nil
}

// RunApp loads img under rc and executes app, measuring application-phase
// cycles only.
func RunApp(img libos.AppImage, rc RunConfig, app func(p *libos.Process, ctx *core.Context)) RunResult {
	p, err := BuildProcess(img, rc)
	if err != nil {
		return RunResult{Label: rc.label(), Err: err}
	}
	clock := p.Kernel.Clock
	var start, end uint64
	runErr := p.Run(func(ctx *core.Context) {
		start = clock.Cycles()
		app(p, ctx)
		end = clock.Cycles()
	})
	snap := metrics.Of(clock).Snapshot()
	res := RunResult{
		Label: rc.label(),
		Err:   runErr,
		// The three enclave-mode causes partition the faults hardware
		// delivered while the enclave ran.
		Faults: snap.Counter(metrics.CntFaultNotPresent) + snap.Counter(metrics.CntFaultProtection) +
			snap.Counter(metrics.CntFaultSGX),
		SelfPage:  p.Runtime.Stats.SelfFaults,
		Forwarded: p.Runtime.Stats.ForwardedFaults,
		Fetched:   p.Runtime.Stats.FetchedPages,
		Evicted:   p.Runtime.Stats.EvictedPages,
		OSPageIns: snap.Counter(metrics.CntOSPageIns),
		AEXs:      snap.Counter(metrics.CntAEXs),
		Enters:    snap.Counter(metrics.CntEnters),
		Resumes:   snap.Counter(metrics.CntResumes),
		ADChecks:  snap.Counter(metrics.CntADChecks),
		Detected:  p.Runtime.Stats.AttacksDetected,
		Metrics:   snap,
	}
	if runErr == nil && end >= start {
		res.Cycles = end - start
	}
	return res
}

// RunKernel executes one workload kernel (nbench / Phoenix / PARSEC) in its
// own enclave under rc and returns the measurement.
func RunKernel(k workloads.Kernel, rc RunConfig, scale int, seed uint64) RunResult {
	heap := k.ArenaPages + 8
	if rc.HeapPages > 0 {
		heap = rc.HeapPages
	}
	img := libos.AppImage{
		Name:      k.Name,
		Libraries: []libos.Library{{Name: "lib" + k.Name + ".so", Pages: 4}},
		HeapPages: heap,
	}
	rc2 := rc
	rc2.HeapPages = heap
	return RunApp(img, rc2, func(p *libos.Process, ctx *core.Context) {
		pages, err := p.Alloc.AllocPages(k.ArenaPages)
		if err != nil {
			panic(fmt.Sprintf("experiments: arena for %s: %v", k.Name, err))
		}
		env := &workloads.KernelEnv{
			Ctx:   ctx,
			Pages: pages,
			Clock: p.Kernel.Clock,
			Rng:   sim.NewRand(seed),
			Scale: scale,
			Code:  p.Code[img.Libraries[0].Name].PageVAs(),
			Stack: p.Stack.PageVAs()[:2],
		}
		k.Run(env)
	})
}

// touchAll writes every page once (warm-up / population helper).
func touchAll(ctx *core.Context, pages []mmu.VAddr) {
	for _, va := range pages {
		ctx.Store(va)
	}
}
