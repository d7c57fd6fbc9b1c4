// Package autarky is a faithful architectural reproduction of
// "Autarky: Closing controlled channels with self-paging enclaves"
// (Orenbach, Baumann, Silberstein — EuroSys 2020).
//
// It models the complete SGX memory-management architecture (EPC, EPCM,
// enclave transitions, OS-driven paging), the Autarky ISA changes that hide
// page-fault information from the OS and force invocation of a trusted
// in-enclave fault handler, and the full self-paging software stack: a
// Graphene-like library OS, the Autarky driver, and three secure paging
// policies — cached software ORAM, page clusters, and rate-limited demand
// paging. The controlled-channel attacks the paper defends against are
// implemented too, so the defense can be demonstrated end to end.
//
// # Quick start
//
//	m := autarky.NewMachine()
//	p, err := m.Spawn(autarky.AppImage{
//		Name:      "hello",
//		Libraries: []autarky.Library{{Name: "libhello.so", Pages: 4}},
//		HeapPages: 64,
//	}, autarky.Config{SelfPaging: true, Policy: autarky.PolicyRateLimit,
//		RateLimitBurst: 128, QuotaPages: 48})
//	if err != nil { ... }
//	err = p.Run(func(ctx *autarky.Context) {
//		pages, _ := p.Alloc.AllocPages(16)
//		for _, va := range pages {
//			ctx.Store(va)
//		}
//	})
//
// Enclave-resident request servers with open-loop load and exact latency
// percentiles are one call away: see Machine.Serve.
//
// Everything is deterministic: performance results are logical cycle counts
// on the machine's clock.
package autarky

import (
	"errors"
	"fmt"

	"autarky/internal/cluster"
	"autarky/internal/core"
	"autarky/internal/fault"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sched"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// Re-exported types forming the public API surface.
type (
	// Machine-level types.
	Clock = sim.Clock
	Costs = sim.Costs

	// Application/image types.
	AppImage = libos.AppImage
	Library  = libos.Library
	Function = libos.Function
	Region   = libos.Region
	Config   = libos.Config
	Process  = libos.Process

	// Runtime types.
	Context          = core.Context
	Runtime          = core.Runtime
	Policy           = core.Policy
	RateLimitPolicy  = core.RateLimitPolicy
	ClusterPolicy    = core.ClusterPolicy
	TerminationError = sgx.TerminationError

	// Address types.
	VAddr = mmu.VAddr

	// Cluster API (Table 1).
	ClusterID       = cluster.ID
	ClusterRegistry = cluster.Registry

	// Observability types (see Machine.Metrics).
	MetricsSnapshot = metrics.Snapshot
	MetricCounter   = metrics.Counter
	CycleCategory   = sim.Category
	CycleBuckets    = sim.Buckets

	// ConfigError reports which Config field Validate rejected; it unwraps
	// to ErrBadConfig.
	ConfigError = libos.ConfigError
)

// Cycle-attribution categories: every cycle the machine's clock advances is
// charged to exactly one of these, and a snapshot's attribution always sums
// to the machine's total cycles.
const (
	CatCompute = sim.CatCompute
	CatPaging  = sim.CatPaging
	CatCrypto  = sim.CatCrypto
	CatFault   = sim.CatFault
	CatPolicy  = sim.CatPolicy
)

// Error taxonomy. Every sentinel works with errors.Is through arbitrary
// wrapping; ConfigError and TerminationError additionally work with
// errors.As.
var (
	// ErrEPCExhausted is the root class for EPC capacity failures.
	ErrEPCExhausted = core.ErrEPCExhausted
	// ErrEPCPressure marks a driver fetch refused because the enclave's
	// quota holds only pinned pages; it wraps ErrEPCExhausted.
	ErrEPCPressure = core.ErrEPCPressure
	// ErrRateLimited marks a paging-policy refusal under the §5.2.4 fault
	// bound (the runtime terminates the enclave when it surfaces).
	ErrRateLimited = core.ErrRateLimited
	// ErrQuotaExceeded marks libOS allocations beyond a configured bound
	// (heap pages, ELRANGE growth reserve).
	ErrQuotaExceeded = libos.ErrQuotaExceeded
	// ErrBadConfig is the class of Config.Validate rejections.
	ErrBadConfig = libos.ErrBadConfig
	// ErrNotLoaded marks kernel services invoked with a stale enclave
	// handle: never loaded, or already destroyed. The orderliness checker
	// (internal/orderly) asserts it on every out-of-order lifecycle call.
	ErrNotLoaded = hostos.ErrNotLoaded
	// ErrSuspended marks an attempt to run (or double-suspend) an enclave
	// the kernel has swapped out wholesale (§5.2.1).
	ErrSuspended = hostos.ErrSuspended
	// ErrNotSuspended marks a resume of an enclave that is not swapped out.
	ErrNotSuspended = hostos.ErrNotSuspended
	// ErrEnclaveLive marks a teardown (or checkpoint-restore reusing the
	// address range) of an enclave whose trusted runtime has not
	// terminated — destroying it would be an undetectable restart (§3).
	ErrEnclaveLive = hostos.ErrEnclaveLive
)

// Policy kinds for Config.Policy.
const (
	PolicyPinAll    = libos.PolicyPinAll
	PolicyRateLimit = libos.PolicyRateLimit
	PolicyClusters  = libos.PolicyClusters
	PolicyORAM      = libos.PolicyORAM
)

// Paging mechanisms for Config.Mech.
const (
	MechSGX1 = core.MechSGX1
	MechSGX2 = core.MechSGX2
)

// PageSize is the architectural page size (4 KiB).
const PageSize = mmu.PageSize

// DefaultBase is the first auto-placed ELRANGE slot under Spawn. Pass it
// (or any explicit base) to co-locate enclaves at identical layouts.
const DefaultBase = libos.DefaultBase

// Machine is one simulated host: CPU, MMU, EPC, untrusted kernel and
// backing store. Create enclave processes on it with Spawn; drive them with
// Proc.Run/Wait. Several processes coexist on one machine, time-sliced by
// the deterministic cycle-driven scheduler (see WithScheduler/WithQuantum).
type Machine struct {
	Clock  *sim.Clock
	Costs  *sim.Costs
	Kernel *hostos.Kernel

	sched    *sched.Scheduler
	nextBase mmu.VAddr

	// optErr records the first WithXxx option rejection; machine
	// construction cannot fail, so the first Spawn/Serve/Restore
	// surfaces it (always a *ConfigError matching ErrBadConfig).
	optErr error
}

// Option customizes machine construction.
type Option func(*machineConfig)

type machineConfig struct {
	geometry    hostos.Geometry
	costs       sim.Costs
	rootSecret  []byte
	schedPolicy sched.PolicyKind
	quantum     uint64
	backing     *BackingStore
	faultPlan   *fault.Plan
	retry       *hostos.RetryPolicy
	fallback    *BackingStore
	fallbackSet bool
}

// withEPCBase places the machine's EPC at a specific physical frame range
// (used by the Hypervisor to carve disjoint static partitions).
func withEPCBase(base mmu.PFN) Option { return func(c *machineConfig) { c.geometry.EPCBase = base } }

// WithEPCFrames sets the physical EPC capacity in 4 KiB frames.
// The default (65536 frames = 256 MiB) matches the paper's platform; tests
// and scaled-down experiments use fewer.
func WithEPCFrames(n int) Option { return func(c *machineConfig) { c.geometry.EPCFrames = n } }

// WithTLBGeometry sets the TLB geometry (sets × ways). Default 64×4.
func WithTLBGeometry(sets, ways int) Option {
	return func(c *machineConfig) { c.geometry.TLBSets, c.geometry.TLBWays = sets, ways }
}

// WithCosts overrides the calibrated cycle cost model.
func WithCosts(costs sim.Costs) Option { return func(c *machineConfig) { c.costs = costs } }

// WithRootSecret overrides the hardware sealing root (fixed by default so
// runs are reproducible).
func WithRootSecret(secret []byte) Option {
	return func(c *machineConfig) { c.rootSecret = append([]byte(nil), secret...) }
}

// defaultMachineConfig is the option baseline NewMachine starts from.
func defaultMachineConfig() machineConfig {
	return machineConfig{
		geometry:    hostos.DefaultGeometry(65536),
		costs:       sim.DefaultCosts(),
		rootSecret:  []byte("autarky-model-root-secret"),
		schedPolicy: sched.RoundRobin,
		quantum:     sched.DefaultQuantum,
	}
}

// validate is the single validation path every WithXxx option funnels
// through (the storage options — backing, fault plan, retry, fallback —
// are checked where their stacks are built, on the same optErr). The first
// problem is reported as a *ConfigError naming the offending option.
func (c *machineConfig) validate() error {
	g := c.geometry
	if g.EPCFrames < 1 {
		return &ConfigError{Field: "EPCFrames", Reason: fmt.Sprintf("%d frames, want >= 1", g.EPCFrames)}
	}
	if g.TLBSets < 1 || g.TLBWays < 1 {
		return &ConfigError{Field: "TLBGeometry", Reason: fmt.Sprintf("%d sets x %d ways, want >= 1x1", g.TLBSets, g.TLBWays)}
	}
	if len(c.rootSecret) == 0 {
		return &ConfigError{Field: "RootSecret", Reason: "empty sealing root"}
	}
	if _, err := sched.NewPolicy(c.schedPolicy); err != nil {
		return &ConfigError{Field: "Scheduler", Reason: fmt.Sprintf("unknown policy kind %d", int(c.schedPolicy))}
	}
	return nil
}

// NewMachine builds a simulated host.
func NewMachine(opts ...Option) *Machine {
	cfg := defaultMachineConfig()
	for _, o := range opts {
		o(&cfg)
	}
	optErr := cfg.validate()
	if optErr != nil {
		// Construct on safe defaults so the machine's fields stay usable
		// values; the recorded error blocks every entry point anyway.
		cfg = defaultMachineConfig()
	}
	clock := sim.NewClock()
	costs := cfg.costs
	kernel := hostos.NewHost(clock, costs, cfg.geometry, cfg.rootSecret)
	// Backend composition, innermost first: the configured storage stack,
	// then the fault injector (so every kernel-visible operation is exposed
	// to it), then the retry layer (which re-rolls transient outages), then
	// the degraded-mode mirror (which absorbs what retry could not).
	backend, err := buildBacking(cfg.backing, kernel.Store, clock, costs, 0)
	if optErr == nil && err != nil {
		optErr = err
	}
	if optErr == nil && cfg.faultPlan != nil {
		if err := cfg.faultPlan.Validate(); err != nil {
			optErr = &ConfigError{Field: "FaultPlan", Reason: err.Error()}
		} else {
			backend = fault.NewBackend(backend, *cfg.faultPlan, clock)
		}
	}
	if optErr == nil && cfg.retry != nil {
		if err := cfg.retry.Validate(); err != nil {
			field := "RetryPolicy"
			var re *hostos.RetryPolicyError
			if errors.As(err, &re) {
				// Point at the exact knob: "RetryPolicy.Attempts" etc.
				field += "." + re.Field
				optErr = &ConfigError{Field: field, Reason: re.Reason}
			} else {
				optErr = &ConfigError{Field: field, Reason: err.Error()}
			}
		} else {
			backend = hostos.NewRetryBackend(backend, *cfg.retry, clock)
		}
	}
	if optErr == nil && cfg.fallbackSet {
		secondary, err := buildBacking(cfg.fallback, pagestore.NewStore(), clock, costs, 0)
		if err != nil {
			var ce *ConfigError
			if errors.As(err, &ce) {
				optErr = &ConfigError{Field: "FallbackStore", Reason: ce.Reason}
			} else {
				optErr = err
			}
		} else {
			backend = pagestore.NewFallbackBackend(backend, secondary, clock, costs)
		}
	}
	if optErr == nil {
		// The kernel is freshly built and hosts no enclaves, so the install
		// cannot be refused; a non-nil error here is a wiring bug.
		optErr = kernel.SetBackend(backend)
	}
	// validate accepted the policy kind, or cfg fell back to the defaults.
	policy, _ := sched.NewPolicy(cfg.schedPolicy)
	return &Machine{
		Clock:    clock,
		Costs:    kernel.Costs,
		Kernel:   kernel,
		sched:    sched.New(kernel, policy, cfg.quantum),
		nextBase: libos.DefaultBase,
		optErr:   optErr,
	}
}

// Cycles reports the machine's logical time.
func (m *Machine) Cycles() uint64 { return m.Clock.Cycles() }

// Metrics returns an immutable snapshot of the machine's metrics: total
// cycles, their attribution across the cycle categories, and every event
// counter the simulation maintains. Snapshots taken at the same logical
// time are identical; Snapshot.Check verifies the attribution invariant
// sum(buckets) == cycles.
func (m *Machine) Metrics() MetricsSnapshot {
	return metrics.Of(m.Clock).Snapshot()
}
