// Package hostos models the untrusted operating system of the Autarky
// threat model: it owns the page table, services page faults, runs the
// demand pager, implements the Autarky driver interface
// (ay_set_os_managed / ay_set_enclave_managed / ay_fetch_pages /
// ay_evict_pages, paper §5.2.1) — and, optionally, hosts an adversary that
// mounts controlled-channel attacks through the very same interfaces.
//
// Nothing in this package is trusted. It manipulates enclave state only
// through the SGX instruction model, exactly as a real kernel would.
package hostos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"autarky/internal/core"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
	"autarky/internal/sim"
	"autarky/internal/trace"
)

// ErrEPCPressure aliases the sentinel the driver contract defines: a fetch
// could not be satisfied within the enclave's EPC quota, so the enclave
// must evict its own pages first.
var ErrEPCPressure = core.ErrEPCPressure

// Check at compile time that the kernel satisfies the driver interface the
// trusted runtime is written against.
var _ core.Driver = (*Kernel)(nil)

// Errors returned by kernel services.
var (
	// ErrUnknownPage is returned for pages never added to the enclave.
	ErrUnknownPage = errors.New("hostos: page not part of enclave")
	// ErrNotLoaded is returned when a kernel service is invoked for an
	// enclave that is not in the kernel's tables: a Proc that was never
	// produced by LoadEnclave, or one whose enclave has been destroyed.
	// Every lifecycle entry point checks it, so a stale handle surfaces a
	// sentinel instead of dereferencing freed bookkeeping.
	ErrNotLoaded = errors.New("hostos: enclave not loaded")
	// ErrSuspended is returned when running a swapped-out enclave; the
	// kernel must ResumeEnclave first (§5.2.1: suspended enclaves are
	// non-runnable by contract).
	ErrSuspended = errors.New("hostos: enclave is suspended")
	// ErrNotSuspended is returned by ResumeEnclave for an enclave that is
	// not swapped out.
	ErrNotSuspended = errors.New("hostos: enclave not suspended")
	// ErrEnclaveLive is returned by DestroyEnclave for an enclave whose
	// trusted runtime has not terminated: teardown of a live enclave would
	// be an undetectable restart, which the threat model forbids (§3).
	ErrEnclaveLive = errors.New("hostos: enclave is alive (terminate it first)")
	// ErrEnclavesLoaded is returned by SetBackend once any enclave is
	// loaded: swapping the storage stack with sealed blobs outstanding
	// would strand them in the old stack.
	ErrEnclavesLoaded = errors.New("hostos: backend swap with enclaves loaded")
)

// Adversary hooks into the kernel's fault and timer paths. A benign kernel
// uses NopAdversary.
type Adversary interface {
	// OnEnclaveFault observes a (possibly masked) enclave fault. Returning
	// true means the adversary repaired the page tables itself and the
	// kernel must skip its own paging service before resuming.
	OnEnclaveFault(k *Kernel, p *Proc, f *mmu.Fault) bool
	// OnTimer runs on each preemption-timer AEX, before ERESUME.
	OnTimer(k *Kernel, p *Proc)
}

// NopAdversary is the benign (non-attacking) OS behaviour.
type NopAdversary struct{}

// OnEnclaveFault reports the fault unhandled.
func (NopAdversary) OnEnclaveFault(*Kernel, *Proc, *mmu.Fault) bool { return false }

// OnTimer does nothing.
func (NopAdversary) OnTimer(*Kernel, *Proc) {}

// Preemptor is the kernel's scheduler upcall: it runs on every
// preemption-timer AEX, after the adversary's OnTimer and before the kernel
// ERESUMEs the enclave. A scheduler implementation parks the current
// execution stream inside OnPreempt and returns only when the stream is
// dispatched again, so the ERESUME that follows is the context-switch-in.
type Preemptor interface {
	OnPreempt(k *Kernel, p *Proc)
}

// IdleProbe is published on a Proc by the server loop it runs, so the
// scheduler can tell whether resuming the loop from its idle yield would
// only poll, find nothing due and yield again — and if so, account that
// poll, or a run of them, in place instead of resuming the loop (see
// Kernel.PollInPlace).
type IdleProbe interface {
	// QuietAt reports whether the loop is parked in its idle yield and a
	// poll at cycle now would find nothing to do; cycles is what that poll
	// charges. The answer is exact for the one poll asked about.
	QuietAt(now uint64) (cycles uint64, quiet bool)
	// QuietUntil returns the first cycle at which a poll of the parked loop
	// could stop being quiet: every poll before it finds nothing to do,
	// however many run. The bound may come early, never late. It is 0 when
	// no poll is quiet (the loop is not parked, or would find work or return
	// whatever the cycle) and math.MaxUint64 when every poll is.
	QuietUntil() uint64
	// Poll performs the effects and charges of n quiet polls in a row
	// without resuming the loop. Its caller has found each of them quiet at
	// its cycle: a single poll through QuietAt, a run through QuietUntil.
	Poll(n uint64)
}

// pageState is the kernel's bookkeeping for one enclave page. Only a
// record with present set is live: the page was added to the enclave (by
// EADD at load or EAUG at run time).
type pageState struct {
	va             mmu.VAddr
	pfn            mmu.PFN // valid only while resident
	perms          mmu.Perms
	present        bool
	resident       bool
	enclaveManaged bool
	everEvicted    bool
}

// Proc is the kernel's per-enclave process state.
type Proc struct {
	E   *sgx.Enclave
	TCS *sgx.TCS
	// Quota is the maximum number of resident EPC frames the kernel allows
	// this enclave (0 = unlimited). It is the experiments' "EPC size" knob.
	Quota int

	// pages holds one record per ELRANGE page, indexed by the page's offset
	// from E.Base (see pageAt). LoadEnclave sizes it once; it never grows,
	// so pointers into it stay valid.
	pages    []pageState
	resident int
	// order is the residency queue for victim selection: CLOCK for legacy
	// enclaves, FIFO for self-paging ones (A/D bits unusable, §5.1.4).
	order []uint64
	hand  int

	// suspended marks an enclave the kernel has swapped out wholesale
	// (the only state in which enclave-managed pages may be evicted).
	suspended bool

	// Idle is the probe of the server loop running in this enclave, nil
	// when none runs.
	Idle IdleProbe
}

// ResidentPages reports the number of EPC-resident pages.
func (p *Proc) ResidentPages() int { return p.resident }

// Page returns the kernel's view of one page (for tests and adversaries).
func (p *Proc) Page(va mmu.VAddr) (resident, enclaveManaged bool, ok bool) {
	ps := p.page(va)
	if ps == nil {
		return false, false, false
	}
	return ps.resident, ps.enclaveManaged, true
}

// pageAt returns the record of enclave page vpn, or nil when the page was
// never added or lies outside ELRANGE. A page below the base wraps the
// unsigned offset past the end, so one comparison bounds both sides.
func (p *Proc) pageAt(vpn uint64) *pageState {
	i := vpn - p.E.Base.VPN()
	if i >= uint64(len(p.pages)) || !p.pages[i].present {
		return nil
	}
	return &p.pages[i]
}

// page returns the record of the enclave page holding va, or nil.
func (p *Proc) page(va mmu.VAddr) *pageState { return p.pageAt(va.VPN()) }

// ResidencyFingerprint folds the kernel's entire paging state for the
// process into one FNV-1a hash: per-page residency/management bits in
// ascending address order, the victim queue (order and hand position), and
// the suspended flag. Two processes with equal fingerprints are
// indistinguishable to every future paging decision the kernel makes for
// them, which is what lets the orderliness checker use the fingerprint as a
// canonical state digest and the regression tests assert replacement
// determinism without reaching into private fields.
func (p *Proc) ResidencyFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range p.pages {
		ps := &p.pages[i]
		if !ps.present {
			continue
		}
		var bits uint64
		if ps.resident {
			bits |= 1
		}
		if ps.enclaveManaged {
			bits |= 2
		}
		if ps.everEvicted {
			bits |= 4
		}
		word(uint64(ps.va))
		word(bits)
	}
	word(^uint64(0)) // separator: page list from victim queue
	for _, vpn := range p.order {
		word(vpn)
	}
	word(uint64(p.hand))
	if p.suspended {
		word(1)
	} else {
		word(0)
	}
	return h.Sum64()
}

// PageVAs returns all page addresses of the enclave in ascending address
// order.
func (p *Proc) PageVAs() []mmu.VAddr {
	var out []mmu.VAddr
	for i := range p.pages {
		if p.pages[i].present {
			out = append(out, p.pages[i].va)
		}
	}
	return out
}

// Kernel is the untrusted OS. NewHost builds it together with the machine
// it runs; its CPU, PT, Store, Clock and Costs are that machine's.
type Kernel struct {
	CPU   *sgx.CPU
	PT    *mmu.PageTable
	Store *pagestore.Store
	Clock *sim.Clock
	Costs *sim.Costs

	Adversary Adversary

	// Preemptor, when set, receives the scheduler upcall on every
	// preemption-timer AEX (see the Preemptor interface).
	Preemptor Preemptor

	// ClassicOCalls makes every driver call a classic OCALL round trip
	// instead of an exitless host call (ablation of the §6 design choice).
	ClassicOCalls bool

	// Observed, when set, records what the OS sees of its enclaves: each
	// enclave fault it handles (trace.KindFault, carrying the address as
	// delivered, so a self-paging enclave's is masked to its base) and each
	// enclave page it pages in (trace.KindPageIn: ay_fetch_pages arguments,
	// legacy demand paging and resume reloads). nil records nothing.
	// Recording never changes a simulated result: it charges no cycles and
	// counts nothing.
	Observed *trace.Log

	procs map[uint64]*Proc
	// procList holds the same processes in enclave-creation order, so the
	// cross-enclave victim scan is deterministic (map iteration is not).
	procList []*Proc
	// migrated tombstones enclave IDs retired by RetireEnclave, so a stale
	// handle to a migrated-away enclave surfaces ErrMigrated (still an
	// ErrNotLoaded in the errors.Is sense) instead of the generic sentinel.
	migrated map[uint64]bool
	m        *metrics.Metrics

	// backend is the storage hierarchy every paging path writes sealed
	// blobs to and reads them from. It defaults to the plain Store; the
	// facade may stack a blob cache or an ORAM layer in front via
	// SetBackend. The Store field stays the terminal level of whatever
	// stack is installed.
	backend pagestore.PagingBackend

	// Driver scratch, reused across calls: augPFNs is AugPages' result
	// (valid until the next AugPages call), evictVictims EvictPages' batch.
	augPFNs      []mmu.PFN
	evictVictims []*pageState
}

// Geometry is a host's physical shape: the first frame and size of its EPC,
// and its TLB's sets and ways.
type Geometry struct {
	EPCBase   mmu.PFN
	EPCFrames int
	TLBSets   int
	TLBWays   int
}

// DefaultGeometry is the platform shape with epcFrames of EPC: the EPC
// starts at frame 0x100000 and the TLB has 64 sets of 4 ways.
func DefaultGeometry(epcFrames int) Geometry {
	return Geometry{EPCBase: 0x100000, EPCFrames: epcFrames, TLBSets: 64, TLBWays: 4}
}

// regularMemoryBase is the first frame of regular memory, far above any EPC.
const regularMemoryBase = mmu.PFN(1 << 40)

// NewHost assembles one machine on clock: page table, TLB, EPC, regular
// memory, a CPU sealing under rootSecret, a backing store, and the kernel,
// installed as the CPU's OS handler. Every part charges through the host's
// own copy of costs, k.Costs: editing it reaches them all, and never the
// caller's value.
func NewHost(clock *sim.Clock, costs sim.Costs, g Geometry, rootSecret []byte) *Kernel {
	c := &costs
	pt := mmu.NewPageTable(clock, c)
	tlb := mmu.NewTLB(g.TLBSets, g.TLBWays, clock, c)
	epc := sgx.NewEPC(g.EPCBase, g.EPCFrames)
	cpu := sgx.NewCPU(clock, c, tlb, pt, epc, sgx.NewRegularMemory(regularMemoryBase), rootSecret)
	store := pagestore.NewStore()
	k := &Kernel{
		CPU:       cpu,
		PT:        pt,
		Store:     store,
		Clock:     clock,
		Costs:     c,
		Adversary: NopAdversary{},
		procs:     make(map[uint64]*Proc),
		migrated:  make(map[uint64]bool),
		m:         metrics.Of(clock),
		backend:   store,
	}
	cpu.OS = k
	return k
}

// SetBackend installs a paging-backend stack (cache, ORAM, ...) in front of
// the plain store. It must run before any enclave is loaded: switching
// backends with blobs outstanding would strand them in the old stack, so
// the call fails with ErrEnclavesLoaded once the kernel hosts a process.
func (k *Kernel) SetBackend(b pagestore.PagingBackend) error {
	if len(k.procList) > 0 {
		return fmt.Errorf("%w: %d enclave(s) resident", ErrEnclavesLoaded, len(k.procList))
	}
	k.backend = b
	return nil
}

// Backend returns the installed paging-backend stack.
func (k *Kernel) Backend() pagestore.PagingBackend { return k.backend }

// Proc returns the process state for an enclave.
func (k *Kernel) Proc(e *sgx.Enclave) *Proc { return k.procs[e.ID] }

// proc resolves the kernel's registration for a Proc handle. A handle that
// was never registered — or whose enclave has been destroyed — yields
// ErrNotLoaded instead of a nil dereference deeper in the service.
func (k *Kernel) proc(p *Proc) (*Proc, error) {
	if p == nil || p.E == nil {
		return nil, fmt.Errorf("%w: nil process handle", ErrNotLoaded)
	}
	if got := k.procs[p.E.ID]; got != p {
		if k.migrated[p.E.ID] {
			return nil, fmt.Errorf("%w: enclave %d", ErrMigrated, p.E.ID)
		}
		return nil, fmt.Errorf("%w: enclave %d", ErrNotLoaded, p.E.ID)
	}
	return p, nil
}

// procFor resolves the kernel's registration for an enclave (the driver
// entry points are keyed by *sgx.Enclave, not *Proc).
func (k *Kernel) procFor(e *sgx.Enclave) (*Proc, error) {
	if e == nil {
		return nil, fmt.Errorf("%w: nil enclave", ErrNotLoaded)
	}
	p := k.procs[e.ID]
	if p == nil {
		if k.migrated[e.ID] {
			return nil, fmt.Errorf("%w: enclave %d", ErrMigrated, e.ID)
		}
		return nil, fmt.Errorf("%w: enclave %d", ErrNotLoaded, e.ID)
	}
	return p, nil
}

// Segment is one loadable region of an enclave image.
type Segment struct {
	VA    mmu.VAddr
	Data  []byte // rounded up to whole pages; nil means zero-fill
	Pages int    // page count when Data is nil
	Perms mmu.Perms
}

// EnclaveSpec describes an enclave to load.
type EnclaveSpec struct {
	Base     mmu.VAddr
	Size     uint64
	Attrs    sgx.Attributes
	Runtime  sgx.Runtime
	Segments []Segment
	Quota    int
	// SeedVersions, when non-nil, pre-loads the enclave's anti-replay
	// version counters (vpn -> version) immediately after ECREATE, so a
	// restored enclave continues its previous incarnation's chain. Load-time
	// evictions then continue from the seeded counters.
	SeedVersions map[uint64]uint64
	// SeedMigrationEpoch, when non-zero, records the migration freshness
	// counter this incarnation was adopted at (see sgx.CounterService); the
	// next migration envelope it seals carries SeedMigrationEpoch+1.
	SeedMigrationEpoch uint64
}

// LoadEnclave builds, measures and initializes an enclave per spec:
// ECREATE, EADD of every segment page, TCS provisioning, EINIT, and PTE
// setup. If the initial image exceeds the quota, the tail is evicted during
// load (as Graphene-style ahead-of-time EADD loading must). A load that
// fails tears the uninitialized enclave down before it returns the error,
// so neither its registration nor its EPC frames outlive the failure.
func (k *Kernel) LoadEnclave(spec EnclaveSpec) (_ *Proc, err error) {
	e, err := k.CPU.ECREATE(spec.Base, spec.Size, spec.Attrs)
	if err != nil {
		return nil, err
	}
	e.Runtime = spec.Runtime
	if spec.SeedVersions != nil {
		if err := e.SeedVersions(spec.SeedVersions); err != nil {
			return nil, err
		}
	}
	if spec.SeedMigrationEpoch != 0 {
		e.SeedMigrationEpoch(spec.SeedMigrationEpoch)
	}
	p := &Proc{
		E:     e,
		Quota: spec.Quota,
		pages: make([]pageState, spec.Size/mmu.PageSize),
	}
	k.procs[e.ID] = p
	k.procList = append(k.procList, p)
	defer func() {
		if err != nil {
			if terr := k.teardown(p); terr != nil {
				err = fmt.Errorf("%w (teardown: %v)", err, terr)
			}
		}
	}()

	for _, seg := range spec.Segments {
		if seg.VA.Offset() != 0 {
			return nil, fmt.Errorf("hostos: segment at unaligned %s", seg.VA)
		}
		npages := seg.Pages
		if seg.Data != nil {
			npages = int(mmu.PagesIn(uint64(len(seg.Data))))
		}
		for i := 0; i < npages; i++ {
			va := seg.VA + mmu.VAddr(i*mmu.PageSize)
			var content []byte
			if seg.Data != nil {
				lo := i * mmu.PageSize
				hi := lo + mmu.PageSize
				if hi > len(seg.Data) {
					hi = len(seg.Data)
				}
				content = seg.Data[lo:hi]
			}
			if err := k.ensureQuota(p, 1); err != nil {
				return nil, err
			}
			pfn, err := k.CPU.EADD(e, va, content, seg.Perms, sgx.PTReg)
			if err != nil {
				return nil, err
			}
			// EADD refuses a page outside ELRANGE, so the offset is in range.
			ps := &p.pages[va.VPN()-e.Base.VPN()]
			*ps = pageState{va: va, pfn: pfn, perms: seg.Perms, present: true, resident: true}
			p.resident++
			p.order = append(p.order, va.VPN())
			k.mapPage(p, ps)
		}
	}

	// One TCS with four SSA frames: an AEX stacks a frame, so this bounds
	// how deeply the trusted fault handler may itself fault.
	tcs, err := k.CPU.AddTCS(e, 4)
	if err != nil {
		return nil, err
	}
	p.TCS = tcs
	if err := k.CPU.EINIT(e); err != nil {
		return nil, err
	}
	return p, nil
}

// mapPage installs the PTE for a resident page. Self-paging enclaves get
// A/D pre-set so Autarky's A/D-must-be-set rule admits the mapping
// (paper §5.1.4); legacy enclaves get a normal cold mapping.
func (k *Kernel) mapPage(p *Proc, ps *pageState) {
	if p.E.SelfPaging() {
		k.PT.MapAD(ps.va, ps.pfn, ps.perms, true, true, true)
	} else {
		k.PT.Map(ps.va, ps.pfn, ps.perms, true)
	}
}

// Run enters the enclave on its TCS and executes the trusted runtime until
// it returns (or the enclave terminates). Stale handles (never loaded, or
// destroyed) fail with ErrNotLoaded; swapped-out enclaves with ErrSuspended.
func (k *Kernel) Run(p *Proc) error {
	p, err := k.proc(p)
	if err != nil {
		return err
	}
	if p.suspended {
		return fmt.Errorf("%w: enclave %d", ErrSuspended, p.E.ID)
	}
	return k.CPU.EEnter(p.E, p.TCS)
}

// HandlePageFault implements sgx.OSHandler.
func (k *Kernel) HandlePageFault(c *sgx.CPU, e *sgx.Enclave, tcs *sgx.TCS, f *mmu.Fault) error {
	// The CPU layer opened a fault-handling scope before dispatching here, so
	// the kernel's work inherits that attribution.
	k.Clock.ChargeAmbient(k.Costs.OSFaultWork)

	// Host-memory fault (host mode, or enclave touching untrusted buffers):
	// demand-allocate anonymous zero-fill memory.
	if e == nil || !e.Contains(f.Addr) {
		pfn := c.Reg.Alloc()
		k.PT.Map(f.Addr.PageBase(), pfn, mmu.PermRWX, false)
		if e != nil {
			return c.ERESUME(e, tcs)
		}
		return nil
	}

	// Enclave-region fault.
	k.m.Inc(metrics.CntOSFaults)
	p, perr := k.procFor(e)
	if perr != nil {
		// A fault attributed to a destroyed enclave: nothing to service, and
		// no proc state to consult — surface the sentinel, never a nil deref.
		return perr
	}
	if k.Observed != nil {
		k.Observed.Add(trace.Event{Cycle: k.Clock.Cycles(), Addr: f.Addr, Type: f.Type, Kind: trace.KindFault})
	}

	handled := k.Adversary.OnEnclaveFault(k, p, f)

	if e.SelfPaging() {
		// The address is masked; there is nothing the OS can do on its own.
		// Attempt the silent resume first (an honest kernel knows better,
		// but doing it documents — and tests — that hardware forbids it).
		err := c.ERESUME(e, tcs)
		if err == nil {
			return nil
		}
		if !errors.Is(err, sgx.ErrPendingException) {
			return err
		}
		// Forced re-entry through the trusted handler.
		if err := c.EEnter(e, tcs); err != nil {
			return err
		}
		if _, in := c.InEnclave(); in {
			return nil // handler resumed in-enclave
		}
		return c.ERESUME(e, tcs)
	}

	// Legacy enclave: the OS repairs the mapping (demand paging or undoing
	// whatever broke it) and silently resumes — the controlled channel.
	if !handled {
		if err := k.serviceLegacyFault(p, f); err != nil {
			return err
		}
	}
	return c.ERESUME(e, tcs)
}

// HandleTimer implements sgx.OSHandler for preemption-timer AEXs.
func (k *Kernel) HandleTimer(c *sgx.CPU, e *sgx.Enclave, tcs *sgx.TCS) error {
	k.chargeTimer(1)
	p, perr := k.procFor(e)
	if perr != nil {
		return perr
	}
	k.Adversary.OnTimer(k, p)
	if k.Preemptor != nil {
		k.Preemptor.OnPreempt(k, p)
	}
	return c.ERESUME(e, tcs)
}

// chargeTimer is the own cost and count of n timer handler runs, in the
// ambient category.
func (k *Kernel) chargeTimer(n uint64) {
	k.m.Add(metrics.CntTimerTicks, n)
	k.Clock.ChargeAmbient(n * k.Costs.OSFaultWork)
}

// IdleLoop returns the probe of the server loop parked in p's idle yield,
// saved being the execution context the loop was parked with, when the
// kernel may account the loop's polls in place on every ground but the
// cycle, and nil otherwise. The grounds: a loop has published its probe on
// p, p is registered, the enclave can be resumed, no adversary watches
// timer interrupts — OnTimer must see every one of them — and the loop was
// parked on the fault path, as every interrupt AEX parks it, whether it ran
// or was accounted in place.
func (k *Kernel) IdleLoop(p *Proc, saved sgx.ExecContext) IdleProbe {
	if p == nil || p.Idle == nil || k.procs[p.E.ID] != p {
		return nil
	}
	if _, benign := k.Adversary.(NopAdversary); !benign {
		return nil
	}
	if !k.CPU.CanResume(p.E, p.TCS) || saved.Category() != sim.CatFault {
		return nil
	}
	return p.Idle
}

// InPlaceCycles is what an in-place poll charges around the loop's own
// poll: resume before it (the ERESUME), exit after it (the AEX and the
// timer handler up to the scheduler upcall).
func (k *Kernel) InPlaceCycles() (resume, exit uint64) {
	return k.CPU.ResumeCycles(), k.CPU.AEXCycles() + k.Costs.OSFaultWork
}

// PollInPlace accounts n idle polls of the server loop parked in p's idle
// yield, without resuming it: the polls of n dispatches of p, the last of
// which hands over at cycle at. saved is the execution context the loop was
// parked with. One real round trip is: ERESUME from the timer handler, the
// loop's empty poll, the loop's voluntary AEX, and this handler again up to
// the scheduler upcall. PollInPlace charges and counts every event of the n
// round trips in its category, and returns the context the loop would be
// parked with afterwards; the CPU is left with a fresh context, as after
// any park.
//
// It returns false and charges nothing whenever a round trip could do
// anything else: IdleLoop refuses the loop, a poll would find work (the
// last one by QuietAt; for n > 1 also by QuietUntil, whose bound covers the
// earlier ones), or the charges would cross the clock's limit.
func (k *Kernel) PollInPlace(p *Proc, saved sgx.ExecContext, n, at uint64) (sgx.ExecContext, bool) {
	loop := k.IdleLoop(p, saved)
	if loop == nil || n == 0 {
		return saved, false
	}
	resume, exit := k.InPlaceCycles()
	poll, quiet := loop.QuietAt(at + resume)
	if !quiet || n > 1 && at+resume >= loop.QuietUntil() || n*(resume+poll+exit) > k.Clock.Room() {
		return saved, false
	}
	c := k.CPU
	c.SwapContext(saved)
	c.AccountResume(n)
	loop.Poll(n)
	c.AccountInterruptAEX(n)
	k.chargeTimer(n)
	return c.SwapContext(sgx.ExecContext{}), true
}

// serviceLegacyFault implements vanilla demand paging for a legacy enclave:
// page in evicted pages, re-map unmapped ones, restore reduced permissions.
func (k *Kernel) serviceLegacyFault(p *Proc, f *mmu.Fault) error {
	ps := p.page(f.Addr)
	if ps == nil {
		return fmt.Errorf("%w: fault at %s", ErrUnknownPage, f.Addr)
	}
	if !ps.resident {
		if err := k.pageIn(p, ps); err != nil {
			return err
		}
		k.m.Inc(metrics.CntOSPageIns)
		return nil
	}
	// Resident: the PTE must have been broken (not by us — by an attacker,
	// or by a stale shootdown); restore it.
	k.mapPage(p, ps)
	k.CPU.TLB.Invalidate(ps.va)
	return nil
}

// pageIn brings one evicted page back: quota check, ELDU, map.
func (k *Kernel) pageIn(p *Proc, ps *pageState) error {
	if err := k.ensureQuota(p, 1); err != nil {
		return err
	}
	if k.Observed != nil {
		k.Observed.Add(trace.Event{Cycle: k.Clock.Cycles(), Addr: ps.va, Type: mmu.AccessRead, Kind: trace.KindPageIn})
	}
	pfn, err := k.CPU.ELDU(p.E, ps.va, k.backend)
	if err != nil {
		return err
	}
	ps.pfn = pfn
	ps.resident = true
	p.resident++
	p.order = append(p.order, ps.va.VPN())
	k.mapPage(p, ps)
	return nil
}

// ensureQuota makes room for need more resident pages by evicting
// OS-managed victims — first against the enclave's own quota, then against
// physical EPC exhaustion, where victims may come from any enclave
// ("a flexible mechanism to balance the number of EPC pages available to
// each enclave, that adjusts to the available EPC and memory pressure from
// other enclaves", §5.2.1). It fails with ErrEPCPressure when every
// remaining resident page is pinned.
func (k *Kernel) ensureQuota(p *Proc, need int) error {
	if p.Quota > 0 {
		for p.resident+need > p.Quota {
			victim := k.pickVictim(p)
			if victim == nil {
				return ErrEPCPressure
			}
			if err := k.evictOne(p, victim); err != nil {
				return err
			}
		}
	}
	return k.ensurePhysicalFrames(p, need)
}

// ensurePhysicalFrames reclaims OS-managed pages — from any enclave,
// preferring others' — until the physical EPC has need free frames.
func (k *Kernel) ensurePhysicalFrames(p *Proc, need int) error {
	for k.CPU.EPC.FreeFrames() < need {
		reclaimed := false
		// Prefer victims from other enclaves (balance pressure), then self.
		for _, other := range k.procList {
			if other == p || other.resident == 0 {
				continue
			}
			if victim := k.pickVictim(other); victim != nil {
				if err := k.evictOne(other, victim); err != nil {
					return err
				}
				reclaimed = true
				break
			}
		}
		if reclaimed {
			continue
		}
		victim := k.pickVictim(p)
		if victim == nil {
			return ErrEPCPressure
		}
		if err := k.evictOne(p, victim); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim selects a resident OS-managed page: CLOCK (second chance via
// the PTE accessed bit) for legacy enclaves, FIFO for self-paging ones
// where A/D bits are unusable (paper §7 setup: "the baseline uses a clock
// page eviction policy, Autarky uses FIFO eviction").
func (k *Kernel) pickVictim(p *Proc) *pageState {
	compact := p.order[:0]
	for _, vpn := range p.order {
		if ps := p.pageAt(vpn); ps != nil && ps.resident {
			compact = append(compact, vpn)
		}
	}
	p.order = compact
	if len(p.order) == 0 {
		return nil
	}
	useClock := !p.E.SelfPaging()
	scanned := 0
	for scanned < 2*len(p.order) {
		if p.hand >= len(p.order) {
			p.hand = 0
		}
		ps := p.pageAt(p.order[p.hand])
		if ps == nil || !ps.resident || ps.enclaveManaged {
			p.hand++
			scanned++
			continue
		}
		if useClock {
			if pte, ok := k.PT.Get(ps.va); ok && pte.Accessed {
				// Second chance: clear and move on.
				k.PT.ClearAccessed(ps.va)
				k.CPU.TLB.Invalidate(ps.va)
				p.hand++
				scanned++
				continue
			}
		}
		p.hand++
		return ps
	}
	return nil
}

// evictOne is the pager's eviction of one page: the SGXv1 dance on a batch
// of one, counted as a page-out.
func (k *Kernel) evictOne(p *Proc, ps *pageState) error {
	one := [1]*pageState{ps}
	return k.evict(p, one[:], metrics.CntOSPageOuts)
}

// evict runs the SGXv1 eviction dance on a batch of resident pages, as the
// Intel driver does: EBLOCK and unmap every page, then one ETRACK and TLB
// shootdown round, then EWB each page out. cnt counts the pages written
// back.
func (k *Kernel) evict(p *Proc, victims []*pageState, cnt metrics.Counter) error {
	for _, ps := range victims {
		if err := k.CPU.EBLOCK(p.E, ps.va, ps.pfn); err != nil {
			return err
		}
		k.PT.Unmap(ps.va)
	}
	if len(victims) == 0 {
		return nil
	}
	if err := k.CPU.ETRACK(p.E); err != nil {
		return err
	}
	for _, ps := range victims {
		k.CPU.TLB.Shootdown(ps.va)
	}
	k.CPU.CompleteShootdown(p.E)
	for _, ps := range victims {
		if err := k.CPU.EWB(p.E, ps.va, ps.pfn, k.backend); err != nil {
			return err
		}
		ps.resident = false
		ps.everEvicted = true
		ps.pfn = mmu.NoPFN
		p.resident--
		k.m.Inc(cnt)
	}
	return nil
}

// ReclaimFromEnclave forces the enclave's resident footprint down to max
// pages by evicting OS-managed pages (the kernel's memory-pressure path).
// Pinned pages are respected; the call reports how many pages it reclaimed.
func (k *Kernel) ReclaimFromEnclave(p *Proc, max int) int {
	n := 0
	for p.resident > max {
		victim := k.pickVictim(p)
		if victim == nil {
			break
		}
		if err := k.evictOne(p, victim); err != nil {
			break
		}
		n++
	}
	return n
}
