package libos

import (
	"fmt"

	"autarky/internal/cluster"
	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
)

// PolicyKind selects the secure self-paging policy the loader wires up.
type PolicyKind int

// Available policies.
const (
	// PolicyPinAll pins the entire image; any fault is an attack (the
	// automatic protection of workloads that fit in EPC, §7.3).
	PolicyPinAll PolicyKind = iota
	// PolicyRateLimit demand-pages data with a fault-rate bound (§5.2.4).
	PolicyRateLimit
	// PolicyClusters pages data and code in page clusters (§5.2.3).
	PolicyClusters
	// PolicyORAM pins everything; data accesses go through the cached
	// software ORAM the application wires separately (§5.2.2).
	PolicyORAM
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case PolicyPinAll:
		return "pin-all"
	case PolicyRateLimit:
		return "rate-limit"
	case PolicyClusters:
		return "clusters"
	case PolicyORAM:
		return "oram"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// Config controls loading.
type Config struct {
	// Base is the enclave's load address (page-aligned; 0 = DefaultBase).
	// Machines hosting several enclaves must give each a disjoint ELRANGE —
	// the facade's Spawn does this automatically.
	Base mmu.VAddr
	// Priority is the enclave's scheduling priority under the machine
	// scheduler's priority policy (higher runs first; round-robin ignores it).
	Priority int
	// SelfPaging loads the enclave with Autarky's attested attribute;
	// false loads a legacy (vanilla SGX) enclave.
	SelfPaging bool
	// InEnclaveResume and ElideAEX enable the optional hardware
	// optimizations of §5.1.3 ("no upcall" and "no upcall/AEX" in Table 2).
	InEnclaveResume bool
	ElideAEX        bool
	// Mech selects SGXv1 or SGXv2 paging for the runtime.
	Mech core.Mech
	// QuotaPages limits the enclave's resident EPC frames (0 = unlimited);
	// this is the experiments' effective-EPC-size knob.
	QuotaPages int

	Policy PolicyKind
	// Rate limiting parameters (PolicyRateLimit, or clusters+limit).
	RateLimitPerProgress float64
	RateLimitBurst       uint64
	// DataClusterPages enables automatic data clustering in the allocator
	// with the given cluster size (§5.2.3 "automatic clustering").
	DataClusterPages int
	// CodeClusters builds one cluster per library (plus its Uses closure);
	// without it code pages are pinned.
	CodeClusters bool

	// seedVersions and seedEpoch carry the sealed anti-replay counters and
	// migration epoch into the new incarnation; only Restore and Adopt set
	// them.
	seedVersions map[uint64]uint64
	seedEpoch    uint64
}

// Process is a loaded enclave application.
type Process struct {
	Image   AppImage
	Kernel  *hostos.Kernel
	Proc    *hostos.Proc
	Runtime *core.Runtime
	Reg     *cluster.Registry

	Code  map[string]Region // per library
	Data  Region
	Heap  Region
	Stack Region
	// Reserve is the unbacked ELRANGE tail for SGXv2 dynamic growth.
	Reserve Region

	Alloc *Allocator

	cfg      Config
	grown    int
	handlers []namedHandler

	// Sealed-state scratch (see state.go): checkpoints and migrations
	// capture, encode and seal into these reused buffers, so repeated seals
	// of a long-lived process allocate nothing once warm. capture caches
	// the captureWritable method value.
	statePages  []byte
	stateVAs    []uint64
	stateVPNs   []uint64
	statePlain  []byte
	stateSealed []byte
	capture     func(*core.Context)
}

// Enclave returns the underlying enclave.
func (p *Process) Enclave() *sgx.Enclave { return p.Proc.E }

// Config returns the load-time configuration.
func (p *Process) Config() Config { return p.cfg }

// Run executes app inside the enclave until it returns or the enclave
// terminates.
func (p *Process) Run(app func(*core.Context)) error {
	p.Runtime.App = app
	return p.Kernel.Run(p.Proc)
}

// DefaultBase is where images are loaded (any page-aligned address works).
const DefaultBase = mmu.VAddr(0x10_0000_0000)

// Load builds the enclave for an image under the given configuration:
// layout, measurement, page-management transfer, automatic clustering and
// policy wiring.
func Load(k *hostos.Kernel, img AppImage, cfg Config) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// --- layout ---
	base := cfg.Base
	if base == 0 {
		base = DefaultBase
	}
	cursor := base
	codeRegions := make(map[string]Region, len(img.Libraries))
	var segs []hostos.Segment
	for _, lib := range img.Libraries {
		npages := lib.TotalPages()
		if npages == 0 {
			return nil, fmt.Errorf("libos: library %q has no pages", lib.Name)
		}
		r := Region{Name: lib.Name, Base: cursor, Pages: npages, Perms: mmu.PermRX}
		codeRegions[lib.Name] = r
		content := make([]byte, npages*mmu.PageSize)
		for pg := 0; pg < npages; pg++ {
			copy(content[pg*mmu.PageSize:], synthesizeCode(lib.Name, pg))
		}
		segs = append(segs, hostos.Segment{VA: r.Base, Data: content, Perms: mmu.PermRX})
		cursor = r.End()
	}
	data := Region{Name: "data", Base: cursor, Pages: img.DataPages, Perms: mmu.PermRW}
	cursor = data.End()
	heap := Region{Name: "heap", Base: cursor, Pages: img.HeapPages, Perms: mmu.PermRW}
	cursor = heap.End()
	stack := Region{Name: "stack", Base: cursor, Pages: img.stackPages(), Perms: mmu.PermRW}
	cursor = stack.End()
	reserve := Region{Name: "reserve", Base: cursor, Pages: img.ReservePages, Perms: mmu.PermRW}
	cursor = reserve.End()

	if data.Pages > 0 {
		segs = append(segs, hostos.Segment{VA: data.Base, Pages: data.Pages, Perms: mmu.PermRW})
	}
	if heap.Pages > 0 {
		segs = append(segs, hostos.Segment{VA: heap.Base, Pages: heap.Pages, Perms: mmu.PermRW})
	}
	segs = append(segs, hostos.Segment{VA: stack.Base, Pages: stack.Pages, Perms: mmu.PermRW})

	// --- attributes ---
	attrs := sgx.Attributes(0)
	if cfg.SelfPaging {
		attrs |= sgx.AttrSelfPaging
	}
	if cfg.InEnclaveResume {
		attrs |= sgx.AttrInEnclaveResume
	}
	if cfg.ElideAEX {
		attrs |= sgx.AttrElideAEX
	}
	if cfg.Mech == core.MechSGX2 {
		attrs |= sgx.AttrSGX2
	}

	// --- runtime + enclave ---
	rt := core.NewRuntime(k.CPU, k, k.Clock, k.Costs)
	rt.Mech = cfg.Mech
	spec := hostos.EnclaveSpec{
		Base:     base,
		Size:     uint64(cursor - base),
		Attrs:    attrs,
		Runtime:  rt,
		Segments: segs,
		Quota:    cfg.QuotaPages,

		SeedVersions:       cfg.seedVersions,
		SeedMigrationEpoch: cfg.seedEpoch,
	}
	proc, err := k.LoadEnclave(spec)
	if err != nil {
		return nil, err
	}
	rt.Attach(proc.E)

	p := &Process{
		Image:   img,
		Kernel:  k,
		Proc:    proc,
		Runtime: rt,
		Reg:     cluster.NewRegistry(),
		Code:    codeRegions,
		Data:    data,
		Heap:    heap,
		Stack:   stack,
		Reserve: reserve,
		cfg:     cfg,
	}
	p.Alloc = newAllocator(p, heap, cfg.DataClusterPages)
	p.capture = p.captureWritable

	if cfg.SelfPaging {
		if err := p.wirePolicy(); err != nil {
			return nil, p.unwind(err)
		}
	}
	return p, nil
}

// unwind tears down a process whose construction failed after EINIT and
// returns err: the enclave is retired unless it is dead already, so that its
// pages may be removed, then destroyed, so that neither its registration
// nor its frames outlive the failure.
func (p *Process) unwind(err error) error {
	if dead, _, _ := p.Proc.E.Dead(); !dead {
		p.Kernel.CPU.RetireEnclave(p.Proc.E)
	}
	if derr := p.Kernel.DestroyEnclave(p.Proc); derr != nil {
		return fmt.Errorf("%w (destroy: %v)", err, derr)
	}
	return err
}

// wirePolicy sets page management and the paging policy per configuration.
func (p *Process) wirePolicy() error {
	cfg := p.cfg
	rt := p.Runtime

	// The stack and runtime metadata are always pinned: the fault handler
	// must never fault (§5.3 "nested faults can be avoided by pinning all
	// the handler's code and data pages").
	if err := rt.ManagePages(p.Stack.PageVAs(), p.Stack.Perms, true); err != nil {
		return err
	}

	// Code pages: pinned, or clustered per library.
	pinCode := !cfg.CodeClusters
	for _, lib := range p.Image.Libraries {
		r := p.Code[lib.Name]
		if err := rt.ManagePages(r.PageVAs(), r.Perms, pinCode); err != nil {
			return err
		}
	}
	if cfg.CodeClusters {
		if err := p.buildCodeClusters(); err != nil {
			return err
		}
	}

	// Data + heap pages.
	pinData := cfg.Policy == PolicyPinAll || cfg.Policy == PolicyORAM
	for _, r := range []Region{p.Data, p.Heap} {
		if r.Pages == 0 {
			continue
		}
		if err := rt.ManagePages(r.PageVAs(), r.Perms, pinData); err != nil {
			return err
		}
	}

	switch cfg.Policy {
	case PolicyPinAll, PolicyORAM:
		rt.Policy = core.NewPinAllPolicy()
	case PolicyRateLimit:
		rt.Policy = core.NewRateLimitPolicy(cfg.RateLimitPerProgress, cfg.RateLimitBurst)
	case PolicyClusters:
		cp := core.NewClusterPolicy(p.Reg)
		if cfg.RateLimitPerProgress > 0 || cfg.RateLimitBurst > 0 {
			cp.Limit = core.NewRateLimitPolicy(cfg.RateLimitPerProgress, cfg.RateLimitBurst)
		}
		rt.Policy = cp
	}

	// Pinned pages must be resident before the enclave runs; pages spilled
	// during loading are fetched back now (SetEnclaveManaged returned their
	// status, §5.2.1).
	return rt.EnsurePinnedResident()
}

// buildCodeClusters creates one cluster per library containing its pages
// plus the pages of every library it uses (shared pages across clusters).
// With Funcs present, each function gets its own cluster instead.
func (p *Process) buildCodeClusters() error {
	libRegion := func(name string) (Region, error) {
		r, ok := p.Code[name]
		if !ok {
			return Region{}, fmt.Errorf("libos: unknown library %q in Uses", name)
		}
		return r, nil
	}
	for _, lib := range p.Image.Libraries {
		r := p.Code[lib.Name]
		if len(lib.Funcs) > 0 {
			page := 0
			for _, fn := range lib.Funcs {
				id := p.Reg.NewCluster(0)
				for i := 0; i < fn.Pages; i++ {
					if err := p.Reg.AddPage(id, r.Page(page+i).VPN()); err != nil {
						return err
					}
				}
				page += fn.Pages
			}
			continue
		}
		id := p.Reg.NewCluster(0)
		for _, va := range r.PageVAs() {
			if err := p.Reg.AddPage(id, va.VPN()); err != nil {
				return err
			}
		}
		for _, used := range lib.Uses {
			ur, err := libRegion(used)
			if err != nil {
				return err
			}
			for _, va := range ur.PageVAs() {
				if err := p.Reg.AddPage(id, va.VPN()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
