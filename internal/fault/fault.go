// Package fault is the deterministic pathogen for the paging stack: a
// PagingBackend wrapper that injects the hostile-host behaviours of the
// paper's threat model (§3) — corrupted blobs, truncated blobs, stale-version
// replay, transient unavailability, latency spikes — under a seeded plan.
//
// Every injection decision is a pure function of (plan seed, clock cycle,
// enclave, page, operation): no wall clock, no global PRNG state, no
// iteration order. The same plan over the same call sequence injects exactly
// the same faults, so chaos experiments stay byte-identical at any worker
// count, and a failure found at one seed replays forever.
//
// Keying decisions on the clock cycle is what makes unavailability
// *transient*: a retry of the same fetch happens later (the retry layer
// charges backoff cycles), re-rolls the decision, and may now succeed —
// exactly the behaviour a flaky-but-recoverable backing store exhibits.
// Corruption, truncation and replay, by contrast, are invisible at this
// layer (blobs are opaque to backends); they are detected only by the
// sealing checks far above, so no amount of backend-level retry can mask
// them — which is precisely the recovery gap checkpoint/restore closes.
package fault

import (
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// KindNone means the operation proceeds untouched.
	KindNone Kind = iota
	// KindCorrupt flips ciphertext bits in the fetched blob.
	KindCorrupt
	// KindTruncate returns the fetched blob cut short.
	KindTruncate
	// KindReplay serves the oldest archived blob instead of the current one.
	KindReplay
	// KindUnavail refuses the operation with pagestore.ErrUnavailable.
	KindUnavail
	// KindDelay charges a latency spike, then proceeds normally.
	KindDelay
)

// String names the kind for error details and logs.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindCorrupt:
		return "corrupt"
	case KindTruncate:
		return "truncate"
	case KindReplay:
		return "replay"
	case KindUnavail:
		return "unavailable"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Plan is a deterministic fault schedule: per-operation injection
// probabilities plus the seed that fixes every decision. Probabilities are
// evaluated cumulatively in declaration order and at most one fault fires
// per operation, so their sum must stay within 1.
type Plan struct {
	Seed uint64 // decision seed; same seed + same call sequence = same faults

	PCorrupt  float64 // P(fetched blob comes back bit-flipped)
	PTruncate float64 // P(fetched blob comes back truncated)
	PReplay   float64 // P(fetch served an archived stale blob)
	PUnavail  float64 // P(operation refused with ErrUnavailable)
	PDelay    float64 // P(operation delayed by DelayCycles)

	DelayCycles uint64 // latency spike size; required when PDelay > 0

	// OutageCycles makes unavailability *sustained*: when an unavailability
	// fires, the backend stays unavailable for this many further cycles.
	// Zero keeps outages instantaneous (a single refused operation), which
	// per-operation retry absorbs; sustained outages outlive any bounded
	// backoff and are exactly what the degraded-mode fallback store exists
	// to survive.
	OutageCycles uint64
}

// Zero reports whether the plan injects nothing.
func (p Plan) Zero() bool {
	return p.PCorrupt == 0 && p.PTruncate == 0 && p.PReplay == 0 &&
		p.PUnavail == 0 && p.PDelay == 0
}

// Validate rejects malformed plans: probabilities outside [0,1], a
// cumulative mass above 1, or a delay probability without a delay size.
func (p Plan) Validate() error {
	sum := 0.0
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"PCorrupt", p.PCorrupt}, {"PTruncate", p.PTruncate},
		{"PReplay", p.PReplay}, {"PUnavail", p.PUnavail}, {"PDelay", p.PDelay},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s = %v, want within [0, 1]", pr.name, pr.v)
		}
		sum += pr.v
	}
	if sum > 1 {
		return fmt.Errorf("fault: probabilities sum to %v, want <= 1 (at most one fault per op)", sum)
	}
	if p.PDelay > 0 && p.DelayCycles == 0 {
		return fmt.Errorf("fault: PDelay = %v but DelayCycles = 0", p.PDelay)
	}
	if p.OutageCycles > 0 && p.PUnavail == 0 {
		return fmt.Errorf("fault: OutageCycles = %d with PUnavail = 0 (outages start from an unavailability)", p.OutageCycles)
	}
	return nil
}

// Operation codes mixed into the decision hash, so an evict and a fetch of
// the same page at the same cycle roll independently.
const (
	opEvict uint64 = 1
	opFetch uint64 = 2
)

// Roll decides which fault (if any) hits one operation outside the paging
// stack. The service layer's frame channel reuses the plan's stateless
// decision function for its own traffic, keyed on (direction code, cycle,
// connection, correlation ID) instead of (paging op, cycle, enclave, page);
// op codes above the package's own (1, 2) keep the decision streams
// independent of the paging rolls.
func (p Plan) Roll(op, cycle, key1, key2 uint64) Kind {
	return p.roll(op, cycle, key1, key2)
}

// roll decides which fault (if any) hits one operation.
func (p Plan) roll(op, cycle, enclaveID, vpn uint64) Kind {
	if p.Zero() {
		return KindNone
	}
	u := float64(sim.Mix(p.Seed, op, cycle, enclaveID, vpn)>>11) / (1 << 53)
	// Cumulative bands in declaration order, unrolled: this runs on every
	// paging operation (and every service frame), so it must not build a
	// case table per call. Subtraction order matches the probabilities'
	// declaration order exactly — the float arithmetic, and therefore every
	// historical decision, is unchanged.
	if u < p.PCorrupt {
		return KindCorrupt
	}
	u -= p.PCorrupt
	if u < p.PTruncate {
		return KindTruncate
	}
	u -= p.PTruncate
	if u < p.PReplay {
		return KindReplay
	}
	u -= p.PReplay
	if u < p.PUnavail {
		return KindUnavail
	}
	u -= p.PUnavail
	if u < p.PDelay {
		return KindDelay
	}
	return KindNone
}

// Backend injects the plan's faults around any inner PagingBackend. It sits
// outermost in the stack — between the kernel driver and whatever
// cache/ORAM/store hierarchy is installed — so every kernel-visible paging
// operation is exposed, and recovery layers (retry, fallback) wrap *it*.
type Backend struct {
	inner pagestore.PagingBackend
	plan  Plan
	clock *sim.Clock
	meter *metrics.Metrics

	// history is the attacker's copy of the blobs evicted through this
	// layer, used to serve replays. Only maintained when the plan can
	// actually replay (PReplay > 0): an archive no decision ever reads is
	// pure overhead.
	history pagestore.Archive

	// outageUntil is the cycle at which the current sustained outage ends
	// (see Plan.OutageCycles). It evolves deterministically from the call
	// sequence, so it preserves the replay guarantee.
	outageUntil uint64

	// kinds is per-call scratch for FetchBatch's rolled decisions.
	kinds []Kind
}

var _ pagestore.PagingBackend = (*Backend)(nil)

// NewBackend wraps inner with the plan's faults. The plan must validate.
func NewBackend(inner pagestore.PagingBackend, plan Plan, clock *sim.Clock) *Backend {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	return &Backend{
		inner: inner,
		plan:  plan,
		clock: clock,
		meter: metrics.Of(clock),
	}
}

// Name implements PagingBackend.
func (f *Backend) Name() string { return "fault+" + f.inner.Name() }

// Evict implements PagingBackend.
func (f *Backend) Evict(enclaveID uint64, va mmu.VAddr, b pagestore.Blob) error {
	return pagestore.EvictOne(f, enclaveID, va, b)
}

// Fetch implements PagingBackend.
func (f *Backend) Fetch(enclaveID uint64, va mmu.VAddr) (pagestore.Blob, error) {
	return pagestore.FetchOne(f, enclaveID, va)
}

// Drop implements PagingBackend. Drops pass through unfaulted: a discard
// the host ignores is invisible to the enclave (the archive keeps the blob
// anyway — that is what replay is).
func (f *Backend) Drop(enclaveID uint64, va mmu.VAddr) error {
	return f.inner.Drop(enclaveID, va)
}

// EvictBatch implements PagingBackend, rolling per blob. Evictions face
// unavailability and delay; the stored blob itself is never altered on the
// way in (alterations are modelled on the fetch side, where the enclave
// observes them). The first unavailable blob fails the batch with its key
// attached.
func (f *Backend) EvictBatch(enclaveID uint64, pages []pagestore.PageBlob) error {
	for _, pb := range pages {
		switch f.decide(opEvict, enclaveID, pb.VA) {
		case KindUnavail:
			return &pagestore.BlobError{EnclaveID: enclaveID, VA: pb.VA, Op: "evict", Err: pagestore.ErrUnavailable}
		}
		f.archive(enclaveID, pb.VA, pb.Blob)
	}
	return f.inner.EvictBatch(enclaveID, pages)
}

// FetchBatch implements PagingBackend, rolling per blob: the fault surface
// where the hostile host hands back something other than what it was given.
// The first unavailable blob fails the batch with its key attached.
func (f *Backend) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	kinds := f.kinds[:0]
	for _, va := range pages {
		kind := f.decide(opFetch, enclaveID, va)
		if kind == KindUnavail {
			return &pagestore.BlobError{EnclaveID: enclaveID, VA: va, Op: "fetch", Err: pagestore.ErrUnavailable}
		}
		kinds = append(kinds, kind)
	}
	f.kinds = kinds
	if err := f.inner.FetchBatch(enclaveID, pages, out); err != nil {
		return err
	}
	for i, va := range pages {
		out[i] = f.mangle(kinds[i], enclaveID, va, out[i])
	}
	return nil
}

// decide rolls one operation's fault and accounts for the kinds that are
// resolved before the inner call (delay charges here; unavailability is
// counted here and surfaced by the caller).
func (f *Backend) decide(op uint64, enclaveID uint64, va mmu.VAddr) Kind {
	cycle := f.clock.Cycles()
	if cycle < f.outageUntil {
		f.count(KindUnavail)
		return KindUnavail
	}
	kind := f.plan.roll(op, cycle, enclaveID, va.VPN())
	switch kind {
	case KindNone:
		return kind
	case KindDelay:
		f.count(KindDelay)
		f.clock.ChargeAs(sim.CatPaging, f.plan.DelayCycles)
		return KindNone // after the spike, the op proceeds untouched
	case KindUnavail:
		f.count(KindUnavail)
		if f.plan.OutageCycles > 0 {
			f.outageUntil = cycle + f.plan.OutageCycles
		}
	}
	return kind
}

// mangle applies a fetch-side blob fault. Corruption and truncation modify
// a copy (the underlying store keeps the pristine blob — the enclave just
// never sees it); replay swaps in the oldest archived blob when one exists.
func (f *Backend) mangle(kind Kind, enclaveID uint64, va mmu.VAddr, b pagestore.Blob) pagestore.Blob {
	switch kind {
	case KindCorrupt:
		if len(b.Ciphertext) == 0 {
			return b
		}
		f.count(KindCorrupt)
		ct := make([]byte, len(b.Ciphertext))
		copy(ct, b.Ciphertext)
		i := sim.Mix(f.plan.Seed, 0xc0, f.clock.Cycles(), enclaveID, va.VPN()) % uint64(len(ct))
		ct[i] ^= 0xff
		return pagestore.Blob{Ciphertext: ct, Version: b.Version, EnclaveID: b.EnclaveID}
	case KindTruncate:
		if len(b.Ciphertext) == 0 {
			return b
		}
		f.count(KindTruncate)
		cut := 1 + sim.Mix(f.plan.Seed, 0x7c, f.clock.Cycles(), enclaveID, va.VPN())%uint64(len(b.Ciphertext))
		return pagestore.Blob{Ciphertext: b.Ciphertext[:uint64(len(b.Ciphertext))-cut], Version: b.Version, EnclaveID: b.EnclaveID}
	case KindReplay:
		old, ok := f.history.Oldest(enclaveID, va)
		if !ok {
			return b // nothing older to replay; fault fizzles
		}
		f.count(KindReplay)
		return old
	}
	return b
}

// archive records an evicted blob in the attacker's copy of the traffic.
// It is skipped entirely when the plan never replays: KindReplay is the
// only reader of the history, so an unreplayed archive is unobservable.
func (f *Backend) archive(enclaveID uint64, va mmu.VAddr, b pagestore.Blob) {
	if f.plan.PReplay != 0 {
		f.history.Record(enclaveID, va, b)
	}
}

// count bumps the per-kind and total injection counters.
func (f *Backend) count(k Kind) {
	f.meter.Inc(metrics.CntFaultsInjected)
	switch k {
	case KindCorrupt:
		f.meter.Inc(metrics.CntFaultCorrupts)
	case KindTruncate:
		f.meter.Inc(metrics.CntFaultTruncates)
	case KindReplay:
		f.meter.Inc(metrics.CntFaultReplays)
	case KindUnavail:
		f.meter.Inc(metrics.CntFaultUnavails)
	case KindDelay:
		f.meter.Inc(metrics.CntFaultDelays)
	}
}
