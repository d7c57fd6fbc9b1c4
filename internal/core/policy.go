package core

import (
	"fmt"
	"slices"

	"autarky/internal/cluster"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
)

// ErrRateLimited marks a policy refusal caused by the fault-rate bound
// (terminates with TerminateRateLimit rather than TerminateAttackDetected).
// It aliases the canonical sentinel in internal/sgx — the same value the
// facade re-exports and sgx.TerminationError unwraps to — so errors.Is
// matches the condition across every layer.
var ErrRateLimited = sgx.ErrRateLimited

// Policy is a pluggable secure self-paging policy (paper §5.2). The runtime
// calls it from the trusted fault handler; everything a policy decides is
// visible to the OS through legitimate paging activity, so the policy
// choice determines what leaks (§5.3).
//
// The slices PlanFetch and PickVictims return may be policy scratch, valid
// until the next call on the policy; callers consume them (or copy them)
// before calling again, as the runtime's fetch and eviction paths do.
type Policy interface {
	// PlanFetch maps a legitimate fault on an enclave-managed page to the
	// set of pages to fetch (it must include va). Returning an error means
	// the fault is never legitimate under this policy — treat as attack.
	PlanFetch(r *Runtime, va mmu.VAddr) ([]mmu.VAddr, error)
	// PickVictims chooses at least min(need, available) resident non-pinned
	// enclave-managed pages to evict under memory pressure.
	PickVictims(r *Runtime, need int) []mmu.VAddr
	// OnOSFault is consulted for faults on OS-managed pages before they are
	// forwarded; an error terminates the enclave (rate limiting, §5.2.4).
	OnOSFault(r *Runtime, va mmu.VAddr) error
	// OnFetched and OnEvicted keep policy-internal state in sync with the
	// runtime's paging actions.
	OnFetched(r *Runtime, pages []mmu.VAddr)
	OnEvicted(r *Runtime, pages []mmu.VAddr)
}

// --- PinAll ---------------------------------------------------------------

// PinAllPolicy is the strictest policy (paper §5.2 intro): the entire
// enclave stays resident and every enclave-managed fault is an attack. It
// is automatic for workloads that fit in EPC (Table 2: Hunspell with one
// dictionary, FreeType, libjpeg's streaming working set). It is also the
// runtime's stance when data lives behind the cached software ORAM
// (§5.2.2): every ORAM structure page is pinned, and obliviousness comes
// from the ORAM layer (internal/oram), not from the fault handler.
type PinAllPolicy struct{}

// NewPinAllPolicy returns the pin-everything policy.
func NewPinAllPolicy() *PinAllPolicy { return &PinAllPolicy{} }

// PlanFetch implements Policy: no fault is ever legitimate.
func (*PinAllPolicy) PlanFetch(_ *Runtime, va mmu.VAddr) ([]mmu.VAddr, error) {
	return nil, fmt.Errorf("pin-all: fault on pinned page %s", va)
}

// PickVictims implements Policy: nothing is evictable.
func (*PinAllPolicy) PickVictims(*Runtime, int) []mmu.VAddr { return nil }

// OnOSFault implements Policy: OS-managed faults are forwarded freely.
func (*PinAllPolicy) OnOSFault(*Runtime, mmu.VAddr) error { return nil }

// OnFetched implements Policy.
func (*PinAllPolicy) OnFetched(*Runtime, []mmu.VAddr) {}

// OnEvicted implements Policy.
func (*PinAllPolicy) OnEvicted(*Runtime, []mmu.VAddr) {}

// --- Rate-limited demand paging (§5.2.4) ----------------------------------

// RateLimitPolicy implements bounded-leakage demand paging for unmodified
// binaries: enclave-managed data pages are demand-paged page-by-page (FIFO
// eviction), and the total fault rate is bounded against an
// application-specific progress measure. Exceeding the bound terminates the
// enclave; leakage is limited to cold-page accesses below the bound.
type RateLimitPolicy struct {
	// FaultsPerProgress is the permitted faults per unit of application
	// progress; Burst is the allowance before any progress is reported.
	// A zero FaultsPerProgress with zero Burst disables all faulting.
	FaultsPerProgress float64
	Burst             uint64

	// EvictBatch, when >1, evicts at least that many pages per pressure
	// event, batching the EWB dance like the Intel driver's 16-page
	// batches (§7.1 normalizes latency to a single page of such batches).
	EvictBatch int

	faults uint64
	plan   [1]mmu.VAddr // PlanFetch result
}

// NewRateLimitPolicy builds a rate limiter allowing burst faults up front
// plus perProgress faults per reported progress unit.
func NewRateLimitPolicy(perProgress float64, burst uint64) *RateLimitPolicy {
	return &RateLimitPolicy{FaultsPerProgress: perProgress, Burst: burst}
}

// Faults reports the faults counted so far.
func (p *RateLimitPolicy) Faults() uint64 { return p.faults }

func (p *RateLimitPolicy) admit(r *Runtime, va mmu.VAddr) error {
	p.faults++
	allowed := float64(p.Burst) + p.FaultsPerProgress*float64(r.Progress())
	if float64(p.faults) > allowed {
		r.m.Inc(metrics.CntRateStalls)
		return fmt.Errorf("%w: %d faults exceed bound %.0f at progress %d (page %s)",
			ErrRateLimited, p.faults, allowed, r.Progress(), va)
	}
	r.m.Inc(metrics.CntRateGrants)
	return nil
}

// PlanFetch implements Policy: fetch exactly the faulting page, counted
// against the rate bound.
func (p *RateLimitPolicy) PlanFetch(r *Runtime, va mmu.VAddr) ([]mmu.VAddr, error) {
	if err := p.admit(r, va); err != nil {
		return nil, err
	}
	p.plan[0] = va
	return p.plan[:], nil
}

// PickVictims implements Policy with FIFO over resident non-pinned pages.
func (p *RateLimitPolicy) PickVictims(r *Runtime, need int) []mmu.VAddr {
	if p.EvictBatch > need {
		need = p.EvictBatch
	}
	return r.nextFIFOVictims(need)
}

// OnOSFault implements Policy: forwarded faults count against the bound too.
func (p *RateLimitPolicy) OnOSFault(r *Runtime, va mmu.VAddr) error {
	return p.admit(r, va)
}

// OnFetched implements Policy.
func (*RateLimitPolicy) OnFetched(*Runtime, []mmu.VAddr) {}

// OnEvicted implements Policy.
func (*RateLimitPolicy) OnEvicted(*Runtime, []mmu.VAddr) {}

// --- Page clusters (§5.2.3) -------------------------------------------------

// ClusterPolicy fetches and evicts whole page clusters: a fault reveals
// only that some page of the faulting cluster closure was needed.
type ClusterPolicy struct {
	Reg *cluster.Registry
	// Limit, when non-zero, caps faults per progress unit like
	// RateLimitPolicy (clusters and rate limiting compose).
	Limit *RateLimitPolicy

	// fifo[head:] holds cluster IDs by last fetch, for victim selection;
	// inFIFO[id] tells whether id is queued there.
	fifo   []cluster.ID
	head   int
	inFIFO []bool

	// Scratch reused across calls. plan and victims are the results of
	// PlanFetch and PickVictims, valid until the next call; the rest is
	// valid within one call.
	plan    []mmu.VAddr
	victims []mmu.VAddr
	vpns    []uint64
	ids     []cluster.ID
	seen    map[uint64]struct{}
}

// NewClusterPolicy builds a cluster policy over a registry.
func NewClusterPolicy(reg *cluster.Registry) *ClusterPolicy {
	return &ClusterPolicy{Reg: reg}
}

// PlanFetch implements Policy: the transitive closure of clusters sharing
// pages with the faulting page's clusters — the invariant-preserving fetch
// set. An unclustered enclave-managed page is fetched alone.
func (p *ClusterPolicy) PlanFetch(r *Runtime, va mmu.VAddr) ([]mmu.VAddr, error) {
	if p.Limit != nil {
		if err := p.Limit.admit(r, va); err != nil {
			return nil, err
		}
	}
	p.vpns = p.Reg.AppendClosure(p.vpns[:0], va.VPN())
	out := p.plan[:0]
	for _, vpn := range p.vpns {
		pva := mmu.PageOf(vpn)
		if _, managed := r.PageResident(pva); managed {
			out = append(out, pva)
		}
	}
	p.plan = out
	return out, nil
}

// PickVictims implements Policy: evict the oldest-fetched whole clusters
// until enough pages are freed, then fall back to FIFO — expanding each
// fallback victim to every whole cluster containing it, because evicting a
// page while its cluster-mates stay resident would break the invariant and
// leak. Evicting whole clusters (even sharing pages) is always safe
// (§5.2.3).
func (p *ClusterPolicy) PickVictims(r *Runtime, need int) []mmu.VAddr {
	p.victims = p.victims[:0]
	if p.seen == nil {
		p.seen = make(map[uint64]struct{})
	}
	clear(p.seen)
	for len(p.victims) < need && p.head < len(p.fifo) {
		cid := p.popFIFO()
		if c, ok := p.Reg.Cluster(cid); ok {
			p.addPagesOf(r, c)
		}
	}
	for len(p.victims) < need {
		candidates := r.nextFIFOVictims(1)
		if len(candidates) == 0 {
			break
		}
		vpn := candidates[0].VPN()
		p.ids = p.Reg.AppendClusterIDs(p.ids[:0], vpn)
		if len(p.ids) == 0 {
			p.addResident(r, vpn) // unclustered: a single page is safe
			continue
		}
		for _, id := range p.ids {
			if c, ok := p.Reg.Cluster(id); ok {
				p.addPagesOf(r, c)
			}
		}
	}
	return p.victims
}

// addPagesOf adds every resident page of the whole cluster to the victims.
func (p *ClusterPolicy) addPagesOf(r *Runtime, c *cluster.Cluster) {
	p.vpns = c.AppendPages(p.vpns[:0])
	for _, vpn := range p.vpns {
		p.addResident(r, vpn)
	}
}

// addResident adds the page to the victims, once, if it is a resident
// enclave-managed page.
func (p *ClusterPolicy) addResident(r *Runtime, vpn uint64) {
	if _, dup := p.seen[vpn]; dup {
		return
	}
	p.seen[vpn] = struct{}{}
	pva := mmu.PageOf(vpn)
	if resident, managed := r.PageResident(pva); managed && resident {
		p.victims = append(p.victims, pva)
	}
}

// popFIFO dequeues the oldest-fetched cluster.
func (p *ClusterPolicy) popFIFO() cluster.ID {
	cid := p.fifo[p.head]
	p.head++
	p.inFIFO[cid] = false
	if p.head == len(p.fifo) {
		p.fifo, p.head = p.fifo[:0], 0
	}
	return cid
}

// pushFIFO enqueues a cluster unless it is already queued, reporting
// whether it was added. The queue compacts in place rather than grow while
// dequeued slots at its front can be reused.
func (p *ClusterPolicy) pushFIFO(id cluster.ID) bool {
	if int(id) >= len(p.inFIFO) {
		p.inFIFO = append(p.inFIFO, make([]bool, int(id)+1-len(p.inFIFO))...)
	}
	if p.inFIFO[id] {
		return false
	}
	p.inFIFO[id] = true
	if p.head > 0 && len(p.fifo) == cap(p.fifo) {
		n := copy(p.fifo, p.fifo[p.head:])
		p.fifo, p.head = p.fifo[:n], 0
	}
	p.fifo = append(p.fifo, id)
	return true
}

// OnOSFault implements Policy.
func (p *ClusterPolicy) OnOSFault(r *Runtime, va mmu.VAddr) error {
	if p.Limit != nil {
		return p.Limit.admit(r, va)
	}
	return nil
}

// OnFetched implements Policy: record fetched clusters in FIFO order.
func (p *ClusterPolicy) OnFetched(r *Runtime, pages []mmu.VAddr) {
	for _, va := range pages {
		p.ids = p.Reg.AppendClusterIDs(p.ids[:0], va.VPN())
		for _, id := range p.ids {
			if p.pushFIFO(id) {
				r.m.Inc(metrics.CntClusterSwapIns)
			}
		}
	}
}

// OnEvicted implements Policy: count the distinct clusters leaving EPC.
func (p *ClusterPolicy) OnEvicted(r *Runtime, pages []mmu.VAddr) {
	ids := p.ids[:0]
	for _, va := range pages {
		ids = p.Reg.AppendClusterIDs(ids, va.VPN())
	}
	slices.Sort(ids)
	p.ids = slices.Compact(ids)
	r.m.Add(metrics.CntClusterSwapOuts, uint64(len(p.ids)))
}
