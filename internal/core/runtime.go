package core

import (
	"errors"
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// pageInfo is the runtime's tracking for one enclave page (paper §5.2.1:
// "the trusted runtime tracks the residence status of each page and treats
// any unexpected fault on a purportedly-resident page as an attack"). Only
// a record with managed set is live: the page is enclave-managed.
type pageInfo struct {
	va       mmu.VAddr
	managed  bool
	resident bool
	pinned   bool // never evicted (code, handler, metadata pages)
	perms    mmu.Perms
	version  uint64 // SGXv2 software-path anti-replay counter
}

// Runtime is the Autarky self-paging runtime: the sgx.Runtime installed at
// the enclave entry point.
type Runtime struct {
	CPU    *sgx.CPU
	Driver Driver
	Clock  *sim.Clock
	Costs  *sim.Costs

	// Policy decides what a legitimate fault fetches and what gets evicted
	// under memory pressure.
	Policy Policy

	// Mech selects SGXv1 (driver EWB/ELDU) or SGXv2 (software) paging.
	Mech Mech

	// App is the application entry point, run on a CSSA-0 entry.
	App func(ctx *Context)

	// m is the runtime's scope of the machine registry: every runtime and
	// policy event of this incarnation is counted there (see Metrics).
	m *metrics.Metrics

	enclave *sgx.Enclave
	// pages holds one record per ELRANGE page, indexed by the page's offset
	// from the enclave's base page, baseVPN (see pageAt). Attach sizes it
	// once; it never grows, so pointers into it stay valid.
	pages   []pageInfo
	baseVPN uint64
	// fifo orders resident non-pinned enclave-managed pages for the default
	// eviction policies (A/D bits are architecturally unusable, §5.1.4).
	fifo []uint64

	// scratch holds the reusable buffers of the hot paging paths. Each
	// field is owned by exactly one function and valid only within one call;
	// the paths nest (fetchPages → evictPages → evictSGX2) but never
	// re-enter the same function, so plain fields suffice.
	scratch struct {
		want    []mmu.VAddr          // fetchPages: non-resident subset
		evict   []mmu.VAddr          // evictPages: resident non-pinned subset
		victims []mmu.VAddr          // nextFIFOVictims result
		perms   []mmu.Perms          // fetchSGX2: per-page EAUG permissions
		need    []mmu.VAddr          // fetchSGX2: previously evicted subset
		blobs   []pagestore.Blob     // fetchSGX2: FetchBatch output
		plain   []byte               // fetchSGX2: OpenAppend destination
		pfns    []mmu.PFN            // evictSGX2: frozen frames
		batch   []pagestore.PageBlob // evictSGX2: EvictBatch input
		arena   []byte               // evictSGX2: sealed-blob arena
	}

	progress uint64 // application-reported forward progress (§5.2.4)
}

// NewRuntime builds a runtime. Attach must be called (by the loader) before
// the enclave runs.
func NewRuntime(cpu *sgx.CPU, driver Driver, clock *sim.Clock, costs *sim.Costs) *Runtime {
	return &Runtime{
		CPU:    cpu,
		Driver: driver,
		Clock:  clock,
		Costs:  costs,
		Policy: NewPinAllPolicy(),
		m:      metrics.Of(clock).Scope(),
	}
}

// Metrics returns the counts of this runtime incarnation: its fault
// handler runs, self-paging and forwarded faults, pages fetched and
// evicted, attacks, balloon upcalls and its policy's events. The machine's
// snapshot includes them too.
func (r *Runtime) Metrics() metrics.Snapshot { return r.m.Snapshot() }

// Attach binds the runtime to its enclave after loading and sizes its page
// records to the enclave's ELRANGE.
func (r *Runtime) Attach(e *sgx.Enclave) {
	r.enclave = e
	r.baseVPN = e.Base.VPN()
	r.pages = make([]pageInfo, e.Size/mmu.PageSize)
}

// pageAt returns the record of enclave-managed page vpn, or nil when the
// page is not enclave-managed or lies outside ELRANGE. A page below the
// base wraps the unsigned offset past the end, so one comparison bounds
// both sides.
func (r *Runtime) pageAt(vpn uint64) *pageInfo {
	i := vpn - r.baseVPN
	if i >= uint64(len(r.pages)) || !r.pages[i].managed {
		return nil
	}
	return &r.pages[i]
}

// page returns the record of the enclave-managed page holding va, or nil.
func (r *Runtime) page(va mmu.VAddr) *pageInfo { return r.pageAt(va.VPN()) }

// Enclave returns the attached enclave.
func (r *Runtime) Enclave() *sgx.Enclave { return r.enclave }

// Progress returns the application's forward-progress counter.
func (r *Runtime) Progress() uint64 { return r.progress }

// SeedProgress restores the forward-progress counter from a checkpoint, so
// rate-limit accounting in a restored enclave continues where the
// checkpointed incarnation left off instead of restarting at zero.
func (r *Runtime) SeedProgress(n uint64) { r.progress = n }

// ManagePages transfers the pages to enclave management
// (ay_set_enclave_managed) and starts tracking them. Pinned pages are never
// chosen as eviction victims; the fault handler treats any fault on a
// resident page — pinned or not — as an attack.
func (r *Runtime) ManagePages(pages []mmu.VAddr, perms mmu.Perms, pinned bool) error {
	status, err := r.Driver.SetEnclaveManaged(r.enclave, pages)
	if err != nil {
		return err
	}
	if len(status) != len(pages) {
		return fmt.Errorf("core: driver returned %d statuses for %d pages", len(status), len(pages))
	}
	for _, st := range status {
		i := st.VA.VPN() - r.baseVPN
		if i >= uint64(len(r.pages)) {
			return fmt.Errorf("core: driver managed page %s outside ELRANGE", st.VA)
		}
		pi := &r.pages[i]
		if !pi.managed {
			*pi = pageInfo{va: st.VA.PageBase(), managed: true}
		}
		pi.resident = false
		pi.pinned = pinned
		pi.perms = perms
		if st.Resident {
			r.setResident(pi)
		}
	}
	return nil
}

// setResident marks page pi resident and, unless it is pinned, queues it
// for FIFO victim selection: the one place a page becomes resident.
func (r *Runtime) setResident(pi *pageInfo) {
	pi.resident = true
	if !pi.pinned {
		r.fifo = append(r.fifo, pi.va.VPN())
	}
}

// EnsurePinnedResident fetches every pinned enclave-managed page that is
// not currently resident (pages spilled during loading). Pinned pages must
// be resident before the enclave runs: a fault on one is treated as an
// attack.
func (r *Runtime) EnsurePinnedResident() error {
	var want []mmu.VAddr
	for i := range r.pages {
		if pi := &r.pages[i]; pi.managed && pi.pinned && !pi.resident {
			want = append(want, pi.va)
		}
	}
	return r.EnsureResident(want)
}

// EnsureResident fetches any non-resident pages of the given managed set,
// evicting victims per policy under quota pressure. It always uses the
// SGXv1 driver path, the only one usable outside enclave mode (the loader
// calls it before first entry).
func (r *Runtime) EnsureResident(pages []mmu.VAddr) error {
	var want []mmu.VAddr
	for _, va := range pages {
		if resident, managed := r.PageResident(va); managed && !resident {
			want = append(want, va.PageBase())
		}
	}
	if len(want) == 0 {
		return nil
	}
	savedMech := r.Mech
	r.Mech = MechSGX1
	defer func() { r.Mech = savedMech }()
	return r.fetchPages(want)
}

// ReleasePages returns pages to OS management (ay_set_os_managed) and stops
// tracking them.
func (r *Runtime) ReleasePages(pages []mmu.VAddr) error {
	if err := r.Driver.SetOSManaged(r.enclave, pages); err != nil {
		return err
	}
	for _, va := range pages {
		if pi := r.page(va); pi != nil {
			*pi = pageInfo{}
		}
	}
	return nil
}

// PageResident reports the runtime's belief about a page's residence and
// whether the page is enclave-managed at all.
func (r *Runtime) PageResident(va mmu.VAddr) (resident, managed bool) {
	pi := r.page(va)
	if pi == nil {
		return false, false
	}
	return pi.resident, true
}

// ResidentManagedPages counts resident enclave-managed pages.
func (r *Runtime) ResidentManagedPages() int {
	n := 0
	for i := range r.pages {
		if pi := &r.pages[i]; pi.managed && pi.resident {
			n++
		}
	}
	return n
}

// OnEntry implements sgx.Runtime: the attested entry-point dispatcher.
func (r *Runtime) OnEntry(tcs *sgx.TCS) {
	if tcs.CSSA() == 0 {
		// Fresh call: run the application.
		if r.App != nil {
			ctx := &Context{r: r}
			r.App(ctx)
		}
		return
	}
	// Exception entry: an SSA frame holds the (unmasked) fault details.
	frame, ok := tcs.TopSSA()
	if !ok || !frame.Exit.Valid {
		// Spurious re-entry (e.g. after a timer AEX): nothing to handle.
		return
	}
	r.handleFault(frame.Exit.Fault)
	// Resume: with the proposed optimizations the handler restores the
	// faulting context itself; otherwise fall back to EEXIT + ERESUME.
	if r.enclave.Attrs.Has(sgx.AttrInEnclaveResume) || r.enclave.Attrs.Has(sgx.AttrElideAEX) {
		r.CPU.ResumeInEnclave()
	}
}

// handleFault is the trusted page-fault handler (paper Fig. 2): it
// classifies the fault using the runtime's own residence tracking and
// either terminates (attack), self-pages (legitimate enclave-managed
// fault), or forwards to the OS (OS-managed page).
func (r *Runtime) handleFault(f mmu.Fault) {
	r.Clock.ChargeAs(sim.CatFault, r.Costs.TrustedHandler)
	r.m.Inc(metrics.CntHandlerRuns)

	va := f.Addr.PageBase()
	if !r.enclave.Contains(va) {
		// Faults outside ELRANGE never vector here (they do not set the
		// pending flag); seeing one means the OS is playing games.
		r.detectAttack(fmt.Sprintf("handler invoked for non-enclave address %s", va))
		return
	}

	pi := r.page(va)
	if pi == nil {
		// OS-managed page: forward, subject to policy (rate limiting).
		r.m.Inc(metrics.CntForwardedFaults)
		if err := r.Policy.OnOSFault(r, va); err != nil {
			r.CPU.Terminate(sgx.TerminateRateLimit, err.Error())
		}
		if err := r.Driver.FetchPages(r.enclave, []mmu.VAddr{va}); err != nil {
			r.terminateFetch(err, "OS failed to service forwarded fault: ")
		}
		return
	}

	if pi.resident {
		// The page should be mapped and accessible: the OS unmapped it,
		// remapped it wrong, or cleared its A/D bits. This is the
		// controlled channel — kill the enclave (paper §5.3).
		r.detectAttack(fmt.Sprintf("fault on resident enclave-managed page %s", va))
		return
	}

	// Legitimate self-paging fault.
	r.m.Inc(metrics.CntSelfFaults)
	fetch, err := r.Policy.PlanFetch(r, va)
	if err != nil {
		if errors.Is(err, ErrRateLimited) {
			r.CPU.Terminate(sgx.TerminateRateLimit, err.Error())
		}
		r.detectAttack(err.Error())
		return
	}
	if err := r.fetchPages(fetch); err != nil {
		r.terminateFetch(err, "self-paging fetch failed: ")
	}
}

// terminateFetch kills the enclave after a failed page-in, distinguishing a
// swapped-in page that failed its integrity/freshness check (a tampered,
// truncated, replayed or mis-keyed blob on either paging path) and a
// backing store that stayed unavailable through every recovery layer from
// other fetch failures. The concrete error rides along as the termination
// cause, so callers can errors.Is/As down to the refined sentinel — and to
// the failing page's BlobError key — through the TerminationError.
func (r *Runtime) terminateFetch(err error, prefix string) {
	switch {
	case errors.Is(err, pagestore.ErrIntegrity):
		r.CPU.TerminateCause(sgx.TerminateIntegrity, prefix+err.Error(), err)
	case errors.Is(err, pagestore.ErrUnavailable):
		r.CPU.TerminateCause(sgx.TerminateUnavailable, prefix+err.Error(), err)
	default:
		r.CPU.TerminateCause(sgx.TerminatePolicy, prefix+err.Error(), err)
	}
}

func (r *Runtime) detectAttack(detail string) {
	r.m.Inc(metrics.CntAttacksDetected)
	r.CPU.Terminate(sgx.TerminateAttackDetected, detail)
}

// fetchPages brings a set of enclave-managed pages in, evicting per policy
// when the quota is tight. Pages already resident are skipped (closure
// fetches routinely include them).
func (r *Runtime) fetchPages(pages []mmu.VAddr) error {
	// Everything below — driver round trips, evictions, the SGX2 software
	// path — is page-movement work unless a nested charge (crypto, policy)
	// overrides.
	defer r.Clock.SetCategory(r.Clock.SetCategory(sim.CatPaging))
	want := r.scratch.want[:0]
	for _, va := range pages {
		pi := r.page(va)
		if pi == nil {
			return fmt.Errorf("core: fetch plan includes unmanaged page %s", va)
		}
		if !pi.resident {
			want = append(want, va.PageBase())
		}
	}
	r.scratch.want = want
	if len(want) == 0 {
		return nil
	}

	// Make room: the kernel evicts OS-managed pages on its own; when it
	// reports pressure, evict our own per policy.
	for {
		limit, resident := r.Driver.Quota(r.enclave)
		if limit <= 0 || resident+len(want) <= limit {
			break
		}
		need := resident + len(want) - limit
		victims := r.Policy.PickVictims(r, need)
		if len(victims) == 0 {
			break // let the kernel try; it may still evict OS-managed pages
		}
		if err := r.evictPages(victims); err != nil {
			return err
		}
	}

	var err error
	switch r.Mech {
	case MechSGX1:
		err = r.Driver.FetchPages(r.enclave, want)
		if errors.Is(err, ErrEPCPressure) {
			victims := r.Policy.PickVictims(r, len(want))
			if len(victims) == 0 {
				return err
			}
			if evErr := r.evictPages(victims); evErr != nil {
				return evErr
			}
			err = r.Driver.FetchPages(r.enclave, want)
		}
	case MechSGX2:
		err = r.fetchSGX2(want)
	}
	if err != nil {
		return err
	}
	for _, va := range want {
		r.setResident(r.page(va))
		r.m.Inc(metrics.CntPagesFetched)
	}
	r.Policy.OnFetched(r, want)
	return nil
}

// evictPages writes a set of enclave-managed pages out through the selected
// mechanism and updates tracking.
func (r *Runtime) evictPages(pages []mmu.VAddr) error {
	defer r.Clock.SetCategory(r.Clock.SetCategory(sim.CatPaging))
	out := r.scratch.evict[:0]
	for _, va := range pages {
		pi := r.page(va)
		if pi == nil || !pi.resident || pi.pinned {
			continue
		}
		out = append(out, va.PageBase())
	}
	r.scratch.evict = out
	if len(out) == 0 {
		return nil
	}
	var err error
	switch r.Mech {
	case MechSGX1:
		err = r.Driver.EvictPages(r.enclave, out)
	case MechSGX2:
		err = r.evictSGX2(out)
	}
	if err != nil {
		return err
	}
	for _, va := range out {
		r.page(va).resident = false
		r.m.Inc(metrics.CntPagesEvicted)
	}
	r.Policy.OnEvicted(r, out)
	return nil
}

// nextFIFOVictims returns up to n resident, non-pinned pages in FIFO order,
// compacting stale queue entries as it goes. It is the shared victim source
// for the demand and rate-limited policies. The returned slice is runtime
// scratch, valid until the next call.
func (r *Runtime) nextFIFOVictims(n int) []mmu.VAddr {
	out := r.scratch.victims[:0]
	defer func() { r.scratch.victims = out }()
	keep := r.fifo[:0]
	for i, vpn := range r.fifo {
		pi := r.pageAt(vpn)
		if pi == nil || !pi.resident || pi.pinned {
			continue // stale entry
		}
		if len(out) < n {
			out = append(out, pi.va)
		} else {
			keep = append(keep, r.fifo[i])
		}
	}
	r.fifo = keep
	return out
}
