package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
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

// RunConfig describes one enclave configuration under test: the libOS
// configuration it loads under, plus the experiment-only knobs.
type RunConfig struct {
	libos.Config

	// EvictBatch sets a rate-limit policy's eviction batch (E8 ablation).
	EvictBatch int
	// ClassicOCalls replaces exitless host calls with classic OCALL round
	// trips (§6 ablation).
	ClassicOCalls bool
	// ADCheckCycles overrides the Autarky A/D-check cost (E1 sensitivity).
	ADCheckCycles *uint64
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

// RunResult carries the measurements of one run. Every count is read from
// Metrics, the machine's full snapshot at the end of the run (including
// loading); a RunApp machine hosts exactly one runtime, so its runtime
// counters are that runtime's.
type RunResult struct {
	Label   string
	Cycles  uint64 // application-phase cycles (excludes loading)
	Err     error
	Metrics metrics.Snapshot
}

// Faults is the number of enclave page faults hardware delivered: the three
// enclave-mode causes partition them.
func (r RunResult) Faults() uint64 {
	return r.Metrics.Counter(metrics.CntFaultNotPresent) + r.Metrics.Counter(metrics.CntFaultProtection) +
		r.Metrics.Counter(metrics.CntFaultSGX)
}

// BuildProcess creates a fresh machine and loads an image under rc.
// The returned cleanup-free process is ready to Run.
func BuildProcess(img libos.AppImage, rc RunConfig) (*libos.Process, error) {
	costs := sim.DefaultCosts()
	if rc.ADCheckCycles != nil {
		costs.ADCheck = *rc.ADCheckCycles
	}
	k := newHost(costs)
	k.ClassicOCalls = rc.ClassicOCalls
	p, err := libos.Load(k, img, rc.Config)
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
	res := RunResult{Label: rc.label(), Err: runErr, Metrics: metrics.Of(clock).Snapshot()}
	if runErr == nil && end >= start {
		res.Cycles = end - start
	}
	return res
}

// RunKernel executes one workload kernel (nbench / Phoenix / PARSEC) in its
// own enclave under rc and returns the measurement.
func RunKernel(k workloads.Kernel, rc RunConfig, scale int, seed uint64) RunResult {
	img := libos.AppImage{
		Name:      k.Name,
		Libraries: []libos.Library{{Name: "lib" + k.Name + ".so", Pages: 4}},
		HeapPages: k.ArenaPages + 8,
	}
	return RunApp(img, rc, func(p *libos.Process, ctx *core.Context) {
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
