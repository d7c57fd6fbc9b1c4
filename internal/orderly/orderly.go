// Package orderly is an explicit-state model checker for the enclave
// lifecycle. It drives the real hostos.Kernel, sgx.CPU and libos APIs —
// load, run, suspend/resume, checkpoint/restore, destroy, synthetic fault
// and timer deliveries, backing-store tampering, backend swaps and (in
// Crash scenarios) host crash-stop with blind watchdog detection — through
// exhaustively enumerated adversarial interleavings, and checks every step
// against a declarative expectation table (spec.go): legal prefixes
// succeed, illegal reorderings return their documented sentinels, and
// nothing ever panics or silently succeeds.
//
// The checker is a bounded DFS over operation sequences. Each explored
// node is one executed trace prefix (an "interleaving"); a fresh machine
// is built and the whole prefix replayed for every node, so no hidden
// state leaks between branches and the exploration order is a pure
// function of the spec — byte-identical at any -jobs. States are
// canonicalised by a digest over the lifecycle phase, the tamper and
// checkpoint flags, the backing store size and the kernel's residency
// fingerprint; branches that land on an already-seen digest are pruned.
//
// Abstractions (deliberate, documented):
//   - Timing is not part of the state: the digest ignores clock cycles and
//     TLB contents, which never influence which sentinel an operation
//     returns. Page-table A/D bits (legacy CLOCK metadata) are likewise
//     abstracted — they pick victims, not outcomes.
//   - (op, state) combinations the spec has no row for are skipped and
//     counted, never silently explored: the spec table is the single
//     source of which orderings are defined behaviour.
package orderly

import (
	"fmt"
	"strings"

	"autarky/internal/attack"
	"autarky/internal/core"
	"autarky/internal/fleet"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// Op is one lifecycle operation the checker can schedule. The alphabet
// mixes the legitimate API surface with the attacker's moves (tampering
// with sealed blobs, delivering spurious faults/timers) — orderliness is
// only meaningful against an adversarial scheduler.
type Op uint8

// The operation alphabet.
const (
	// OpLoad loads the scenario's enclave image.
	OpLoad Op = iota
	// OpLoadBad attempts a load with a contradictory configuration
	// (ElideAEX without SelfPaging); it must fail field-specifically and
	// touch nothing.
	OpLoadBad
	// OpRun enters the enclave and touches every heap page.
	OpRun
	// OpSuspend swaps the whole enclave out (kernel memory pressure).
	OpSuspend
	// OpResume restores enclave-managed pages and marks it runnable.
	OpResume
	// OpCheckpoint captures a sealed checkpoint of the process.
	OpCheckpoint
	// OpRestore rebuilds the process from the last checkpoint.
	OpRestore
	// OpRestoreBad attempts a restore from a bit-flipped checkpoint blob.
	OpRestoreBad
	// OpDestroy tears the (dead) enclave down.
	OpDestroy
	// OpFault delivers a synthetic page fault for the first heap page —
	// the OS claiming a fault the hardware never raised.
	OpFault
	// OpTimer delivers a synthetic preemption-timer AEX.
	OpTimer
	// OpTamper corrupts (or, in replay scenarios, rolls back) the sealed
	// blob of the first evicted heap page.
	OpTamper
	// OpTamperPinned corrupts the blob of an evicted enclave-managed
	// stack/code page (only possible while suspended).
	OpTamperPinned
	// OpSwapBackend re-installs the paging backend — legal only with no
	// enclaves resident.
	OpSwapBackend
	// OpQuiesce seals the process for migration, retiring the source
	// incarnation (only in Migration scenarios).
	OpQuiesce
	// OpAdopt rebuilds the process from the last migration envelope under
	// the world's counter service; replaying a committed envelope probes
	// the freshness check.
	OpAdopt
	// OpCrash crash-stops the host under the running incarnation (only in
	// Crash scenarios). Nature's move: it always lands, and from then on
	// the incarnation is unreachable — only the watchdog edges below can
	// observe or recover it.
	OpCrash
	// OpHeartbeat is the supervisor's blind liveness probe: it answers on
	// a host that is up and misses (ErrHeartbeatMissed) on one that is
	// down. Two consecutive misses are the death certificate failover
	// requires.
	OpHeartbeat
	// OpFailover is the supervisor's recovery move: fence the lost
	// incarnation's leftover registration and restore the latest
	// checkpoint into the vacated range. Attempted without a death
	// certificate it is the split-brain probe — the live (or
	// not-yet-declared-dead) incarnation refuses it.
	OpFailover

	// NumOps is the alphabet size.
	NumOps
)

var opNames = [NumOps]string{
	"load", "load-bad", "run", "suspend", "resume", "checkpoint",
	"restore", "restore-bad", "destroy", "fault", "timer", "tamper",
	"tamper-pinned", "swap-backend", "quiesce", "adopt", "crash",
	"heartbeat", "failover",
}

// String names the operation (stable: counterexample traces parse by name).
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// opByName resolves a trace token back to an Op.
func opByName(s string) (Op, bool) {
	for i, n := range opNames {
		if n == s {
			return Op(i), true
		}
	}
	return 0, false
}

// Phase is the abstract lifecycle phase the spec keys on. It is derived
// from concrete machine state after every step, never tracked shadow-side.
type Phase int8

// The lifecycle phases. PhaseAny is deliberately the zero value: a rule
// that does not set Next asserts nothing about the resulting phase.
const (
	// PhaseAny is the wildcard in spec rows.
	PhaseAny Phase = iota
	// PhaseAbsent: no enclave was ever loaded.
	PhaseAbsent
	// PhaseLoaded: alive and runnable.
	PhaseLoaded
	// PhaseSuspended: swapped out wholesale by the kernel.
	PhaseSuspended
	// PhaseDead: the trusted runtime terminated it; not yet destroyed.
	PhaseDead
	// PhaseDestroyed: torn down; the handle is stale.
	PhaseDestroyed
	// PhaseMigrated: sealed and handed off; the incarnation is retired and
	// its address range is vacant, but the handle still answers (with
	// ErrMigrated).
	PhaseMigrated
	// PhaseCrashed: the host under the incarnation crash-stopped. The
	// enclave's kernel registration is intact but unreachable; only the
	// watchdog edges (heartbeat, failover) are defined here.
	PhaseCrashed
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseAny:
		return "any"
	case PhaseAbsent:
		return "absent"
	case PhaseLoaded:
		return "loaded"
	case PhaseSuspended:
		return "suspended"
	case PhaseDead:
		return "dead"
	case PhaseDestroyed:
		return "destroyed"
	case PhaseMigrated:
		return "migrated"
	case PhaseCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Scenario fixes the machine-level knobs one exploration runs under. The
// spec rows condition on the derived properties (self-paging, quota
// tightness, replay), so one table covers every scenario.
type Scenario struct {
	// Name keys the scenario in traces and tables.
	Name string
	// SelfPaging loads an Autarky enclave; false loads legacy SGX.
	SelfPaging bool
	// Mech selects the SGXv1 or SGXv2 paging mechanism.
	Mech core.Mech
	// QuotaPages caps resident EPC frames (0 = roomy: everything fits).
	QuotaPages int
	// HeapPages sizes the enclave heap the workload touches.
	HeapPages int
	// Replay makes OpTamper roll blobs back instead of corrupting them: the
	// world's paging backend records evicted blobs in an attack.Rollback.
	Replay bool
	// Migration enables the quiesce/adopt alphabet (the live-migration
	// handshake and its misuse edges).
	Migration bool
	// Crash enables the chaos alphabet (crash-stop, heartbeat, failover):
	// the checker interleaves host failure and blind detection with the
	// rest of the lifecycle.
	Crash bool
}

// Tight reports whether the quota forces paging traffic.
func (s Scenario) Tight() bool { return s.QuotaPages > 0 }

// DefaultScenarios is the checked matrix: legacy vs self-paging, SGXv1 vs
// SGXv2, roomy vs quota-tight, corruption vs rollback.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: "legacy", Mech: core.MechSGX1, QuotaPages: 6, HeapPages: 6},
		{Name: "legacy-roomy", Mech: core.MechSGX1, HeapPages: 6},
		{Name: "sp-sgx1", SelfPaging: true, Mech: core.MechSGX1, QuotaPages: 6, HeapPages: 6},
		{Name: "sp-sgx1-roomy", SelfPaging: true, Mech: core.MechSGX1, HeapPages: 6},
		{Name: "sp-sgx2", SelfPaging: true, Mech: core.MechSGX2, QuotaPages: 6, HeapPages: 6},
		{Name: "sp-sgx1-replay", SelfPaging: true, Mech: core.MechSGX1, QuotaPages: 6, HeapPages: 6, Replay: true},
		{Name: "sp-migrate", SelfPaging: true, Mech: core.MechSGX1, QuotaPages: 6, HeapPages: 6, Migration: true},
		{Name: "sp-crash", SelfPaging: true, Mech: core.MechSGX1, QuotaPages: 6, HeapPages: 6, Migration: true, Crash: true},
	}
}

// watchdogBeats is how many consecutive missed heartbeats constitute a
// death certificate — the model mirrors the chaos supervisor's two-deadline
// discipline (suspect on the first silence, declare dead on the second).
const watchdogBeats = 2

// ScenarioByName resolves a scenario from DefaultScenarios.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range DefaultScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// errSkip marks an operation that is structurally impossible in the
// current state (no checkpoint to restore, no blob to tamper with). The
// checker counts it as skipped; it is never an outcome.
var errSkip = fmt.Errorf("orderly: operation not applicable")

// world is one concrete machine under exploration: a full Autarky machine
// (clock, EPC, CPU, kernel) plus the attacker-visible bookkeeping the spec
// conditions on. Every trace replay builds a fresh world.
type world struct {
	sc     Scenario
	kernel *hostos.Kernel
	// rollback is the host's record of evicted blobs in Replay scenarios
	// (nil otherwise), installed as the kernel's backend.
	rollback *attack.Rollback

	// proc is the last process handle handed out. It deliberately goes
	// stale after destroy — replaying API calls on stale handles is
	// exactly what the checker probes.
	proc      *libos.Process
	cp        *libos.Checkpoint
	destroyed bool
	// mig is the last migration envelope sealed by OpQuiesce; migCommitted
	// marks it spent (a successful OpAdopt bumped the counter service, so
	// replaying it must be refused as stale).
	mig          *libos.Migration
	migCommitted bool
	counters     *sgx.CounterService
	// tamperedHeap: a sealed blob of a (policy-paged) heap page was
	// tampered with and not yet re-fetched or dropped.
	tamperedHeap bool
	// tamperedPinned: a blob of an enclave-managed pinned page was
	// tampered with while the enclave was suspended.
	tamperedPinned bool
	// ranSinceLoad: the incarnation has executed at least once. On the
	// SGXv2 software path only runtime-evicted blobs are ever read back
	// (kernel load-spill blobs are re-EAUGed zero-filled, which is the
	// correct content for never-written pages), and runtime evictions
	// exist only after a run — so OpTamper gates on this for SGXv2.
	ranSinceLoad bool
	// hostDown: the host under the incarnation crash-stopped (OpCrash).
	// This is chaos-model ground truth, like the fleet's NodeState: the
	// supervisor's moves never read it directly, they observe it through
	// missed heartbeats.
	hostDown bool
	// missedBeats counts consecutive heartbeat misses since the crash;
	// reaching watchdogBeats is the death certificate.
	missedBeats int
}

// newWorld builds a fresh machine for sc whose clock aborts with a
// *sim.LimitError past budget cycles (0 = unlimited).
func newWorld(sc Scenario, budget uint64) *world {
	clock := sim.NewClock()
	clock.SetLimit(budget)
	k := hostos.NewHost(clock, sim.DefaultCosts(), hostos.DefaultGeometry(512), []byte("orderly-root"))
	w := &world{sc: sc, kernel: k, counters: sgx.NewCounterService()}
	if sc.Replay {
		w.rollback = attack.NewRollback(k.Backend())
		if err := k.SetBackend(w.rollback); err != nil {
			panic(err) // a fresh kernel hosts no enclave
		}
	}
	return w
}

// image is the tiny enclave image every scenario loads: one code page,
// HeapPages of heap, two stack pages (explicit, so pinned pages fit inside
// tight quotas).
func (w *world) image() libos.AppImage {
	return libos.AppImage{
		Name:       "orderly",
		Libraries:  []libos.Library{{Name: "code", Pages: 1}},
		HeapPages:  w.sc.HeapPages,
		StackPages: 2,
	}
}

func (w *world) config(bad bool) libos.Config {
	cfg := libos.Config{
		SelfPaging: w.sc.SelfPaging,
		Mech:       w.sc.Mech,
		QuotaPages: w.sc.QuotaPages,
	}
	if w.sc.SelfPaging {
		cfg.Policy = libos.PolicyRateLimit
		cfg.RateLimitBurst = 1 << 30 // rate never terminates; integrity may
	}
	if bad {
		// The documented contradiction: ElideAEX is a self-paging fault
		// path optimization; requesting it on a legacy enclave must be
		// rejected by name before any machine state is touched.
		cfg.SelfPaging = false
		cfg.Policy = libos.PolicyPinAll
		cfg.ElideAEX = true
	}
	return cfg
}

// phase derives the abstract lifecycle phase from concrete machine state.
func (w *world) phase() Phase {
	if w.proc == nil {
		return PhaseAbsent
	}
	if w.destroyed {
		return PhaseDestroyed
	}
	if w.hostDown {
		return PhaseCrashed
	}
	if dead, reason, _ := w.proc.Proc.E.Dead(); dead {
		if reason == sgx.TerminateMigrated {
			return PhaseMigrated
		}
		return PhaseDead
	}
	if w.proc.Proc.Suspended() {
		return PhaseSuspended
	}
	return PhaseLoaded
}

// cond is the spec-matching condition: the phase plus the tri-state flag
// inputs.
type cond struct {
	Phase          Phase
	SelfPaging     bool
	Tight          bool
	TamperedHeap   bool
	TamperedPinned bool
	HasCheckpoint  bool
	// MigFresh: a migration envelope exists whose epoch the counter
	// service has not committed yet (only a fresh envelope may adopt).
	MigFresh bool
	// WatchdogExpired: the supervisor holds a death certificate — the
	// host has missed watchdogBeats consecutive heartbeats.
	WatchdogExpired bool
}

func (w *world) cond() cond {
	return cond{
		Phase:           w.phase(),
		SelfPaging:      w.sc.SelfPaging,
		Tight:           w.sc.Tight(),
		TamperedHeap:    w.tamperedHeap,
		TamperedPinned:  w.tamperedPinned,
		HasCheckpoint:   w.cp != nil,
		MigFresh:        w.mig != nil && !w.migCommitted,
		WatchdogExpired: w.hostDown && w.missedBeats >= watchdogBeats,
	}
}

// chunk is the workload one OpRun executes: touch every heap page, then
// one unit of progress. It drives the real access path, so evicted pages
// are fetched — and tampered blobs detected — exactly as in production.
func (w *world) chunk() func(*core.Context) {
	heap := w.proc.Heap.PageVAs()
	return func(ctx *core.Context) {
		for _, va := range heap {
			ctx.Load(va)
		}
		ctx.Progress(1)
	}
}

// apply executes one operation against the live machine and returns its
// raw outcome. It returns errSkip when the operation is structurally
// impossible (nothing to restore, nothing to tamper with); every other
// return value — nil included — is an outcome the spec must account for.
func (w *world) apply(op Op) error {
	k := w.kernel
	switch op {
	case OpLoad:
		p, err := libos.Load(k, w.image(), w.config(false))
		if err == nil {
			w.proc, w.destroyed = p, false
			w.tamperedHeap, w.tamperedPinned = false, false
			w.ranSinceLoad = false
		}
		return err

	case OpLoadBad:
		_, err := libos.Load(k, w.image(), w.config(true))
		return err

	case OpRun:
		if w.proc == nil {
			return k.Run(&hostos.Proc{})
		}
		err := w.proc.Run(w.chunk())
		if err == nil {
			w.ranSinceLoad = true
		}
		return err

	case OpSuspend:
		var err error
		if w.proc == nil {
			_, err = k.SuspendEnclave(nil)
		} else {
			_, err = k.SuspendEnclave(w.proc.Proc)
		}
		return err

	case OpResume:
		if w.proc == nil {
			return k.ResumeEnclave(nil)
		}
		return k.ResumeEnclave(w.proc.Proc)

	case OpCheckpoint:
		if w.proc == nil {
			return errSkip
		}
		cp, err := w.proc.Checkpoint()
		if err == nil {
			w.cp = cp
		}
		return err

	case OpRestore:
		if w.cp == nil {
			return errSkip
		}
		p, err := libos.Restore(k, w.cp)
		if err == nil {
			w.proc, w.destroyed = p, false
			w.tamperedHeap, w.tamperedPinned = false, false
			w.ranSinceLoad = false
		}
		return err

	case OpRestoreBad:
		if w.cp == nil {
			return errSkip
		}
		bad := &libos.Checkpoint{Sealed: append([]byte(nil), w.cp.Sealed...)}
		bad.Sealed[len(bad.Sealed)/2] ^= 0x01
		_, err := libos.Restore(k, bad)
		return err

	case OpDestroy:
		if w.proc == nil {
			return k.DestroyEnclave(nil)
		}
		err := k.DestroyEnclave(w.proc.Proc)
		if err == nil {
			w.destroyed = true
			// Destroy drops the enclave's sealed blobs; whatever the
			// attacker tampered with is gone with them.
			w.tamperedHeap, w.tamperedPinned = false, false
		}
		return err

	case OpFault:
		if w.proc == nil {
			return errSkip
		}
		f := &mmu.Fault{Addr: w.proc.Heap.Page(0), Type: mmu.AccessRead, NotPresent: true}
		return k.HandlePageFault(k.CPU, w.proc.Proc.E, w.proc.Proc.TCS, f)

	case OpTimer:
		if w.proc == nil {
			return errSkip
		}
		return k.HandleTimer(k.CPU, w.proc.Proc.E, w.proc.Proc.TCS)

	case OpTamper:
		// One tamper per incarnation: Corrupt flips a bit, so a second
		// corruption of the same blob would undo the first.
		if w.proc == nil || w.tamperedHeap {
			return errSkip
		}
		// SGXv2, loaded: blobs of pages spilled by the kernel during load
		// are never read back (see ranSinceLoad); tampering them is inert,
		// so the attack only becomes available once runtime evictions
		// exist. Suspension re-evicts through the kernel EWB path, whose
		// blobs resume always authenticates — no gate there.
		if w.sc.SelfPaging && w.sc.Mech == core.MechSGX2 &&
			w.phase() == PhaseLoaded && !w.ranSinceLoad {
			return errSkip
		}
		id := w.proc.Proc.E.ID
		for _, va := range w.proc.Heap.PageVAs() {
			if resident, _, ok := w.proc.Proc.Page(va); !ok || resident {
				continue
			}
			hit := false
			if w.sc.Replay {
				hit = w.rollback.Replay(id, va)
			} else {
				hit = k.Store.Corrupt(id, va)
			}
			if hit {
				w.tamperedHeap = true
				return nil
			}
		}
		return errSkip

	case OpTamperPinned:
		if w.proc == nil || w.tamperedPinned {
			return errSkip
		}
		id := w.proc.Proc.E.ID
		for _, va := range w.proc.Stack.PageVAs() {
			resident, managed, ok := w.proc.Proc.Page(va)
			if !ok || resident || !managed {
				continue
			}
			if k.Store.Corrupt(id, va) {
				w.tamperedPinned = true
				return nil
			}
		}
		return errSkip

	case OpSwapBackend:
		// Re-installing the current stack is a semantic no-op, so the
		// only observable is the ordering rule: refused with enclaves
		// resident, accepted otherwise.
		return k.SetBackend(k.Backend())

	case OpQuiesce:
		if !w.sc.Migration || w.proc == nil {
			return errSkip
		}
		mig, err := w.proc.Migrate()
		if err == nil {
			w.mig, w.migCommitted = mig, false
			// The seal drove the real access path; the incarnation whose
			// blobs could have been tampered with is retired with them.
			w.tamperedHeap, w.tamperedPinned = false, false
		}
		return err

	case OpAdopt:
		if w.mig == nil {
			return errSkip
		}
		p, err := libos.Adopt(k, w.mig, w.counters)
		if err == nil {
			w.proc, w.destroyed = p, false
			w.tamperedHeap, w.tamperedPinned = false, false
			w.ranSinceLoad = false
			w.migCommitted = true
		}
		return err

	case OpCrash:
		// Nature's move: the host crash-stops under a running incarnation.
		// Crash-while-suspended is a documented gap (the one-machine fence
		// below cannot retire a suspended registration).
		if !w.sc.Crash || w.hostDown || w.phase() != PhaseLoaded {
			return errSkip
		}
		w.hostDown, w.missedBeats = true, 0
		return nil

	case OpHeartbeat:
		// The supervisor's blind probe: it observes only silence, never
		// the hostDown flag itself.
		if !w.sc.Crash {
			return errSkip
		}
		if w.hostDown {
			w.missedBeats++
			return fleet.ErrHeartbeatMissed
		}
		w.missedBeats = 0
		return nil

	case OpFailover:
		if !w.sc.Crash || w.cp == nil {
			return errSkip
		}
		if w.hostDown && w.missedBeats >= watchdogBeats {
			// Death certificate in hand: fence the lost incarnation —
			// retire its leftover registration exactly as a failed-over
			// machine disappears from the fleet, vacating the range the
			// checkpoint restores into.
			if err := k.RetireEnclave(w.proc.Proc); err != nil {
				return err
			}
		}
		// Without the certificate this is the split-brain probe: a blind
		// restore onto a range whose incarnation was never declared dead.
		p, err := libos.Restore(k, w.cp)
		if err == nil {
			w.proc, w.destroyed = p, false
			w.tamperedHeap, w.tamperedPinned = false, false
			w.ranSinceLoad = false
			w.hostDown, w.missedBeats = false, 0
		}
		return err
	}
	return errSkip
}

// applySafe runs apply under a recover: a panic is never a legal outcome,
// so it surfaces as a distinguished error the spec can only ever violate.
// A cycle-budget overrun is not the implementation's outcome but the
// exploration's, so a *sim.LimitError propagates.
func (w *world) applySafe(op Op) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, overrun := r.(*sim.LimitError); overrun {
				panic(r)
			}
			panicked = true
			err = fmt.Errorf("orderly: panic in %s: %v", op, r)
		}
	}()
	return w.apply(op), false
}

// digest canonicalises the world's current state. Everything that can
// influence a future spec outcome is folded in; timing and replacement
// metadata are deliberately abstracted (see the package comment).
func (w *world) digest() uint64 {
	var b strings.Builder
	b.WriteString(w.phase().String())
	fmt.Fprintf(&b, "|th=%v|tp=%v|cp=%v|ran=%v|store=%d",
		w.tamperedHeap, w.tamperedPinned, w.cp != nil, w.ranSinceLoad, w.kernel.Store.Len())
	if w.mig != nil {
		fmt.Fprintf(&b, "|mig=%v", w.migCommitted)
	}
	if w.sc.Crash {
		// Missed beats beyond the death certificate behave identically, so
		// the digest caps them — otherwise every extra heartbeat on a dead
		// host would mint a "new" state and defeat pruning.
		beats := w.missedBeats
		if beats > watchdogBeats {
			beats = watchdogBeats
		}
		fmt.Fprintf(&b, "|down=%v|beats=%d", w.hostDown, beats)
	}
	if w.proc != nil && !w.destroyed {
		fmt.Fprintf(&b, "|prog=%d|fp=%x",
			w.proc.Runtime.Progress(), w.proc.Proc.ResidencyFingerprint())
		if dead, reason, _ := w.proc.Proc.E.Dead(); dead {
			fmt.Fprintf(&b, "|dead=%s", reason)
		}
	}
	return fnvFold(0, b.String())
}

// fnvFold extends an FNV-1a hash with s (seed 0 starts a fresh hash).
func fnvFold(h uint64, s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	if h == 0 {
		h = offset64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
