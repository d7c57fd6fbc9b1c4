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

// PagingMech selects which SGX mechanism services enclave self-paging
// (paper §6 supports both).
type PagingMech int

// Paging mechanisms.
const (
	// MechSGX1 uses the privileged EWB/ELDU instructions in the driver.
	MechSGX1 PagingMech = iota
	// MechSGX2 uses the dynamic memory-management instructions, with
	// encryption performed by the enclave runtime in software.
	MechSGX2
)

// String names the mechanism.
func (m PagingMech) String() string {
	if m == MechSGX1 {
		return "SGX1"
	}
	return "SGX2"
}

// ErrEPCPressure aliases the sentinel the driver contract defines: a fetch
// could not be satisfied within the enclave's EPC quota, so the enclave
// must evict its own pages first.
var ErrEPCPressure = core.ErrEPCPressure

// Check at compile time that the kernel satisfies the driver interface the
// trusted runtime is written against.
var _ core.Driver = (*Kernel)(nil)

// Errors returned by kernel services.
var (
	// ErrPinned is returned when the OS pager is asked to evict an
	// enclave-managed (pinned) page — the Autarky driver refuses
	// (paper §5.2.1: "each resident enclave-managed page is effectively
	// pinned in EPC whenever the enclave is runnable").
	ErrPinned = errors.New("hostos: page is enclave-managed (pinned)")
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
// only poll, find nothing due and yield again — and if so, account that poll
// in place instead of resuming the loop (see Kernel.PollInPlace).
type IdleProbe interface {
	// QuietAt reports whether the loop is parked in its idle yield and a
	// poll at cycle now would find nothing to do; cycles is what that poll
	// charges.
	QuietAt(now uint64) (cycles uint64, quiet bool)
	// Poll performs that poll's effects and charges without resuming the
	// loop. It is called only right after QuietAt reported quiet, at the
	// cycle it was asked about.
	Poll()
}

// KernelStats counts kernel-level paging events.
type KernelStats struct {
	EnclaveFaults uint64
	HostFaults    uint64
	TimerTicks    uint64
	PageIns       uint64 // OS-serviced ELDUs
	PageOuts      uint64 // OS-initiated EWBs
	DriverFetches uint64 // pages fetched through ay_fetch_pages
	DriverEvicts  uint64 // pages evicted through ay_evict_pages
}

// pageState is the kernel's bookkeeping for one enclave page.
type pageState struct {
	va             mmu.VAddr
	pfn            mmu.PFN // valid only while resident
	perms          mmu.Perms
	resident       bool
	enclaveManaged bool
	everEvicted    bool
}

// Proc is the kernel's per-enclave process state.
type Proc struct {
	E    *sgx.Enclave
	TCS  *sgx.TCS
	Mech PagingMech
	// Quota is the maximum number of resident EPC frames the kernel allows
	// this enclave (0 = unlimited). It is the experiments' "EPC size" knob.
	Quota int

	pages    map[uint64]*pageState
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
	ps, exists := p.pages[va.VPN()]
	if !exists {
		return false, false, false
	}
	return ps.resident, ps.enclaveManaged, true
}

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
	for _, va := range p.PageVAs() {
		ps := p.pages[va.VPN()]
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
		word(uint64(va))
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

// PageVAs returns all page addresses of the enclave in ascending order of
// first registration.
func (p *Proc) PageVAs() []mmu.VAddr {
	out := make([]mmu.VAddr, 0, len(p.pages))
	n := p.E.Size / mmu.PageSize
	for i := uint64(0); i < n; i++ {
		va := p.E.Base + mmu.VAddr(i*mmu.PageSize)
		if _, ok := p.pages[va.VPN()]; ok {
			out = append(out, va)
		}
	}
	return out
}

// Kernel is the untrusted OS.
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

	// FaultLog records every enclave fault the OS observes: the attacker's
	// raw view of the controlled channel.
	FaultLog trace.Log

	// FetchLog records every page the OS pages in on behalf of an enclave
	// (ay_fetch_pages arguments and OS-managed page-ins) — the §4
	// demand-paging side channel, which Autarky bounds by policy rather
	// than eliminates.
	FetchLog trace.Log

	Stats KernelStats

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
}

// NewKernel wires the kernel to the machine and installs itself as the
// CPU's OS handler.
func NewKernel(cpu *sgx.CPU, pt *mmu.PageTable, store *pagestore.Store, clock *sim.Clock, costs *sim.Costs) *Kernel {
	k := &Kernel{
		CPU:       cpu,
		PT:        pt,
		Store:     store,
		Clock:     clock,
		Costs:     costs,
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
	NSSA     int
	Runtime  sgx.Runtime
	Segments []Segment
	Quota    int
	Mech     PagingMech
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
// load (as Graphene-style ahead-of-time EADD loading must).
func (k *Kernel) LoadEnclave(spec EnclaveSpec) (*Proc, error) {
	e, err := k.CPU.ECREATE(spec.Base, spec.Size, spec.Attrs)
	if err != nil {
		return nil, err
	}
	e.Runtime = spec.Runtime
	if spec.SeedVersions != nil {
		e.SeedVersions(spec.SeedVersions)
	}
	if spec.SeedMigrationEpoch != 0 {
		e.SeedMigrationEpoch(spec.SeedMigrationEpoch)
	}
	p := &Proc{
		E:     e,
		Mech:  spec.Mech,
		Quota: spec.Quota,
		pages: make(map[uint64]*pageState),
	}
	k.procs[e.ID] = p
	k.procList = append(k.procList, p)

	selfPaging := spec.Attrs.Has(sgx.AttrSelfPaging)
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
			ps := &pageState{va: va, pfn: pfn, perms: seg.Perms, resident: true}
			p.pages[va.VPN()] = ps
			p.resident++
			p.order = append(p.order, va.VPN())
			k.mapPage(p, ps)
			_ = selfPaging
		}
	}

	nssa := spec.NSSA
	if nssa == 0 {
		nssa = 4
	}
	tcs, err := k.CPU.AddTCS(e, nssa)
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
		k.Stats.HostFaults++
		pfn := c.Reg.Alloc()
		k.PT.Map(f.Addr.PageBase(), pfn, mmu.PermRWX, false)
		if e != nil {
			return c.ERESUME(e, tcs)
		}
		return nil
	}

	// Enclave-region fault.
	k.Stats.EnclaveFaults++
	p, perr := k.procFor(e)
	if perr != nil {
		// A fault attributed to a destroyed enclave: nothing to service, and
		// no proc state to consult — surface the sentinel, never a nil deref.
		return perr
	}
	k.FaultLog.Add(trace.Event{Cycle: k.Clock.Cycles(), Addr: f.Addr, Type: f.Type, Kind: trace.KindFault})

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
	k.chargeTimer()
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

// chargeTimer is the timer handler's own cost and count, in the ambient
// category.
func (k *Kernel) chargeTimer() {
	k.Stats.TimerTicks++
	k.m.Inc(metrics.CntTimerTicks)
	k.Clock.ChargeAmbient(k.Costs.OSFaultWork)
}

// PollInPlace accounts one idle poll of the server loop parked in p's idle
// yield, without resuming it. saved is the execution context the loop was
// parked with. The real round trip is: ERESUME from the timer handler, the
// loop's empty poll, the loop's voluntary AEX, and this handler again up to
// the scheduler upcall. PollInPlace charges and counts every event of it in
// that order and category, and returns the context the loop would be parked
// with afterwards; the CPU is left with a fresh context, as after any park.
//
// It returns false and charges nothing whenever the round trip could do
// anything else: no loop is parked idle in p, the poll would find work, the
// enclave cannot be resumed, a charge would cross the clock's limit, or an
// adversary watches timer interrupts — OnTimer must see every one of them.
func (k *Kernel) PollInPlace(p *Proc, saved sgx.ExecContext) (sgx.ExecContext, bool) {
	if p == nil || p.Idle == nil || k.procs[p.E.ID] != p {
		return saved, false
	}
	if _, benign := k.Adversary.(NopAdversary); !benign {
		return saved, false
	}
	c := k.CPU
	resume := c.ResumeCycles()
	poll, quiet := p.Idle.QuietAt(k.Clock.Cycles() + resume)
	if !quiet || !c.CanResume(p.E, p.TCS) || !k.Clock.Fits(resume+poll+c.AEXCycles()+k.Costs.OSFaultWork) {
		return saved, false
	}
	c.SwapContext(saved)
	c.AccountResume()
	p.Idle.Poll()
	c.AccountInterruptAEX()
	k.chargeTimer()
	return c.SwapContext(sgx.ExecContext{}), true
}

// serviceLegacyFault implements vanilla demand paging for a legacy enclave:
// page in evicted pages, re-map unmapped ones, restore reduced permissions.
func (k *Kernel) serviceLegacyFault(p *Proc, f *mmu.Fault) error {
	ps, ok := p.pages[f.Addr.VPN()]
	if !ok {
		return fmt.Errorf("%w: fault at %s", ErrUnknownPage, f.Addr)
	}
	if !ps.resident {
		if err := k.pageIn(p, ps); err != nil {
			return err
		}
		k.Stats.PageIns++
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
	k.FetchLog.Add(trace.Event{Cycle: k.Clock.Cycles(), Addr: ps.va, Type: mmu.AccessRead, Kind: trace.KindFault})
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
			k.Stats.PageOuts++
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
				k.Stats.PageOuts++
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
		k.Stats.PageOuts++
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
		if ps := p.pages[vpn]; ps != nil && ps.resident {
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
		vpn := p.order[p.hand]
		ps := p.pages[vpn]
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

// evictOne runs the full SGXv1 eviction dance for one page:
// EBLOCK → unmap → ETRACK → TLB shootdown → EWB.
func (k *Kernel) evictOne(p *Proc, ps *pageState) error {
	if err := k.CPU.EBLOCK(p.E, ps.va, ps.pfn); err != nil {
		return err
	}
	k.PT.Unmap(ps.va)
	if err := k.CPU.ETRACK(p.E); err != nil {
		return err
	}
	k.CPU.TLB.Shootdown(ps.va)
	k.CPU.CompleteShootdown(p.E)
	if err := k.CPU.EWB(p.E, ps.va, ps.pfn, k.backend); err != nil {
		return err
	}
	ps.resident = false
	ps.everEvicted = true
	ps.pfn = mmu.NoPFN
	p.resident--
	k.m.Inc(metrics.CntOSPageOuts)
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
		k.Stats.PageOuts++
	}
	return n
}
