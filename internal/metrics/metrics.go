// Package metrics is the deterministic, per-machine observability registry:
// monotonic event counters plus the cycle-attribution buckets kept by
// sim.Clock. Every simulated machine owns exactly one registry, reached
// through the machine's clock (Of), so instrumented components need no new
// constructor parameters and no global state. The registry is free of locks
// and allocation on the hot path — counters live in a fixed array — and,
// like the clock, it is confined to the machine's goroutine; cross-machine
// aggregation happens on immutable Snapshot values.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"autarky/internal/sim"
)

// Counter identifies one monotonic event counter. The set is closed and
// indexed densely so Metrics can store counts in a fixed array.
type Counter int

// The counters. Order is the wire order of snapshots; append new counters
// at the end of their group and give them a stable name in counterNames.
const (
	// Enclave transitions (sgx.CPU).
	CntEnters Counter = iota
	CntExits
	CntAEXs
	CntResumes
	CntResumeDenied
	CntElidedFaults

	// Faults by cause, as observed at fault delivery (sgx.CPU).
	CntFaultNotPresent
	CntFaultProtection
	CntFaultSGX
	CntFaultHost

	// Autarky ISA: A/D-bits-set checks on TLB fill.
	CntADChecks

	// SGX instruction executions (sgx paging + loading).
	CntEADD
	CntEBLOCK
	CntETRACK
	CntEWB
	CntELDU
	CntEAUG
	CntEACCEPT
	CntEACCEPTCOPY
	CntEMODPR
	CntEMODT
	CntEREMOVE

	// TLB (mmu.TLB).
	CntTLBHits
	CntTLBMisses
	CntTLBFills
	CntTLBFlushes
	CntTLBShootdowns

	// ORAM (oram.PathORAM / oram.Cache): real vs dummy tree accesses and
	// the enclave-managed cache in front of the tree.
	CntORAMReal
	CntORAMDummy
	CntORAMCacheHits
	CntORAMCacheMisses
	CntORAMCacheEvictions

	// Self-paging policies (core).
	CntRateGrants
	CntRateStalls
	CntClusterSwapIns
	CntClusterSwapOuts

	// In-enclave runtime (core.Runtime).
	CntHandlerRuns
	CntSelfFaults
	CntForwardedFaults
	CntPagesFetched
	CntPagesEvicted
	CntAttacksDetected

	// EPC ballooning (core.Runtime.BalloonRequest).
	CntBalloonRequests
	CntBalloonEvictions

	// Host kernel (hostos.Kernel) and the Autarky driver interface.
	CntOSPageIns
	CntOSPageOuts
	CntDriverFetches
	CntDriverEvicts
	CntDriverCalls
	CntTimerTicks

	// Multi-enclave scheduler (internal/sched).
	CntSchedDispatches  // time slices granted (one per dispatch)
	CntSchedSwitches    // dispatches that changed the running process
	CntSchedPreemptions // involuntary quantum expirations (timer AEX parks)

	// Paging backends (pagestore.PagingBackend wrappers: the sealed-blob
	// cache and the ORAM backend). The plain in-RAM store stays silent;
	// wrapping backends count the traffic and bytes that cross them.
	CntBackendStores // sealed blobs written into a backend (Evict + batch)
	CntBackendLoads  // sealed blobs read out of a backend (Fetch + batch)
	CntBackendHits   // blob served from a cache level without touching inner
	CntBackendMisses // blob that had to come from the inner backend
	CntBackendBytes  // ciphertext bytes moved through a backend, both ways

	// Backend recovery (hostos.RetryBackend, pagestore.FallbackBackend).
	CntBackendRetries   // backend ops re-issued after ErrUnavailable
	CntBackendGiveups   // retry budgets exhausted (error surfaced upward)
	CntBackendFallbacks // ops served by the secondary stack after primary failure
	CntBackendMirrors   // blobs mirrored into the secondary stack on eviction

	// Fault injection (internal/fault.Backend).
	CntFaultsInjected // total injected faults, all kinds
	CntFaultCorrupts  // fetched blob returned with flipped ciphertext bits
	CntFaultTruncates // fetched blob returned truncated
	CntFaultReplays   // fetched blob replaced by an archived stale version
	CntFaultUnavails  // op refused with ErrUnavailable
	CntFaultDelays    // op delayed by an injected latency spike

	// Checkpoint/restore (libos checkpoint, facade Machine.Restore).
	CntCheckpoints     // checkpoint blobs sealed
	CntCheckpointPages // pages captured across all checkpoints
	CntRestores        // enclaves re-spawned from a checkpoint
	CntRestoreCycles   // cycles spent inside libos.Restore

	// Request-serving frontend (internal/service).
	CntServRequests     // request frames admitted into a connection queue
	CntServReplies      // replies delivered intact to the client
	CntServKeepAlives   // keep-alive frames exchanged
	CntServBackpressure // requests refused because the connection queue was full
	CntServResets       // connection resets (corrupt/lost frames)
	CntServCorrupt      // frames that failed their checksum in transit
	CntServTimeouts     // requests shed because their sojourn passed the deadline
	CntServDrops        // frames lost in transit or discarded on a reset
	CntServIdlePolls    // dispatch-loop polls while no frame was due

	// Live migration + fleet (internal/libos migrate, internal/fleet).
	CntMigrations        // migration envelopes sealed (source side)
	CntMigrationPages    // writable pages captured into migration envelopes
	CntAdopts            // envelopes successfully adopted (destination side)
	CntAdoptsRejected    // adopt attempts refused (structural, stale, mismatch)
	CntMigrationDowntime // cycles between quiesce start and destination resume
	CntFleetRebalances   // fleet rebalance scans that produced at least one move

	// Chaos engineering + supervised self-healing (internal/chaos,
	// internal/fleet supervisor).
	CntChaosFailures      // whole-machine failures injected (crashes, freezes, partitions)
	CntChaosHeartbeatMiss // watchdog deadlines a machine's heartbeat missed
	CntChaosFailovers     // tenants evacuated off a failed machine via Quiesce/Adopt
	CntChaosRestarts      // tenants restarted from a periodic checkpoint
	CntChaosShed          // tenants shed because surviving EPC capacity could not hold them
	CntChaosDowntime      // cycles tenants spent down (failure to recovery), summed
	CntChaosLostRequests  // admitted requests lost to machine crashes
	CntChaosRPAge         // recovery-point age at each restart (cycles of lost progress), summed

	// NumCounters is the array size, not a counter.
	NumCounters
)

// counterNames are the stable wire names (JSON keys). Never rename one.
var counterNames = [NumCounters]string{
	CntEnters:       "cpu.eenter",
	CntExits:        "cpu.eexit",
	CntAEXs:         "cpu.aex",
	CntResumes:      "cpu.eresume",
	CntResumeDenied: "cpu.resume_denied",
	CntElidedFaults: "cpu.elided_faults",

	CntFaultNotPresent: "fault.not_present",
	CntFaultProtection: "fault.protection",
	CntFaultSGX:        "fault.sgx",
	CntFaultHost:       "fault.host",

	CntADChecks: "cpu.ad_checks",

	CntEADD:        "sgx.eadd",
	CntEBLOCK:      "sgx.eblock",
	CntETRACK:      "sgx.etrack",
	CntEWB:         "sgx.ewb",
	CntELDU:        "sgx.eldu",
	CntEAUG:        "sgx.eaug",
	CntEACCEPT:     "sgx.eaccept",
	CntEACCEPTCOPY: "sgx.eacceptcopy",
	CntEMODPR:      "sgx.emodpr",
	CntEMODT:       "sgx.emodt",
	CntEREMOVE:     "sgx.eremove",

	CntTLBHits:       "tlb.hits",
	CntTLBMisses:     "tlb.misses",
	CntTLBFills:      "tlb.fills",
	CntTLBFlushes:    "tlb.flushes",
	CntTLBShootdowns: "tlb.shootdowns",

	CntORAMReal:           "oram.real",
	CntORAMDummy:          "oram.dummy",
	CntORAMCacheHits:      "oram.cache_hits",
	CntORAMCacheMisses:    "oram.cache_misses",
	CntORAMCacheEvictions: "oram.cache_evictions",

	CntRateGrants:      "ratelimit.grants",
	CntRateStalls:      "ratelimit.stalls",
	CntClusterSwapIns:  "cluster.swap_ins",
	CntClusterSwapOuts: "cluster.swap_outs",

	CntHandlerRuns:     "runtime.handler_runs",
	CntSelfFaults:      "runtime.self_faults",
	CntForwardedFaults: "runtime.forwarded_faults",
	CntPagesFetched:    "runtime.pages_fetched",
	CntPagesEvicted:    "runtime.pages_evicted",
	CntAttacksDetected: "runtime.attacks_detected",

	CntBalloonRequests:  "balloon.requests",
	CntBalloonEvictions: "balloon.evictions",

	CntOSPageIns:     "os.page_ins",
	CntOSPageOuts:    "os.page_outs",
	CntDriverFetches: "driver.fetches",
	CntDriverEvicts:  "driver.evicts",
	CntDriverCalls:   "driver.calls",
	CntTimerTicks:    "os.timer_ticks",

	CntSchedDispatches:  "sched.dispatches",
	CntSchedSwitches:    "sched.switches",
	CntSchedPreemptions: "sched.preemptions",

	CntBackendStores: "backend.stores",
	CntBackendLoads:  "backend.loads",
	CntBackendHits:   "backend.hits",
	CntBackendMisses: "backend.misses",
	CntBackendBytes:  "backend.bytes",

	CntBackendRetries:   "backend.retries",
	CntBackendGiveups:   "backend.giveups",
	CntBackendFallbacks: "backend.fallbacks",
	CntBackendMirrors:   "backend.mirrors",

	CntFaultsInjected: "faultinj.injected",
	CntFaultCorrupts:  "faultinj.corrupts",
	CntFaultTruncates: "faultinj.truncates",
	CntFaultReplays:   "faultinj.replays",
	CntFaultUnavails:  "faultinj.unavails",
	CntFaultDelays:    "faultinj.delays",

	CntCheckpoints:     "restore.checkpoints",
	CntCheckpointPages: "restore.checkpoint_pages",
	CntRestores:        "restore.restores",
	CntRestoreCycles:   "restore.cycles",

	CntServRequests:     "serv.requests",
	CntServReplies:      "serv.replies",
	CntServKeepAlives:   "serv.keepalives",
	CntServBackpressure: "serv.backpressure",
	CntServResets:       "serv.resets",
	CntServCorrupt:      "serv.corrupt",
	CntServTimeouts:     "serv.timeouts",
	CntServDrops:        "serv.drops",
	CntServIdlePolls:    "serv.idle_polls",

	CntMigrations:        "migrate.seals",
	CntMigrationPages:    "migrate.pages",
	CntAdopts:            "migrate.adopts",
	CntAdoptsRejected:    "migrate.rejected",
	CntMigrationDowntime: "migrate.downtime_cycles",
	CntFleetRebalances:   "fleet.rebalances",

	CntChaosFailures:      "chaos.failures",
	CntChaosHeartbeatMiss: "chaos.heartbeats_missed",
	CntChaosFailovers:     "chaos.failovers",
	CntChaosRestarts:      "chaos.restarts",
	CntChaosShed:          "chaos.shed_tenants",
	CntChaosDowntime:      "chaos.downtime_cycles",
	CntChaosLostRequests:  "chaos.lost_requests",
	CntChaosRPAge:         "chaos.recovery_point_age",
}

// Name returns the counter's stable wire name.
func (c Counter) Name() string {
	if c >= 0 && c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// Metrics is one machine's registry. It is not safe for concurrent use —
// like the sim.Clock it hangs off, it belongs to a single machine on a
// single goroutine.
type Metrics struct {
	clock    *sim.Clock
	counters [NumCounters]uint64
}

// MeterName implements sim.Meter, typing the registry's attachment to the
// clock.
func (m *Metrics) MeterName() string { return "metrics.Metrics" }

// Of returns the registry attached to the machine owning clock, creating
// and attaching one on first use. Components cache the result at
// construction time; machine construction is single-goroutine, so the
// lazy attach involves no synchronization. A clock carrying a meter that
// is not a *Metrics is a wiring bug — two registries racing over one
// machine would split its counters — so Of panics rather than silently
// replacing it.
func Of(clock *sim.Clock) *Metrics {
	switch attached := clock.Meter().(type) {
	case *Metrics:
		return attached
	case nil:
		m := &Metrics{clock: clock}
		clock.SetMeter(m)
		return m
	default:
		panic(fmt.Sprintf("metrics: clock already carries a foreign meter %q", attached.MeterName()))
	}
}

// Inc increments a counter by one.
func (m *Metrics) Inc(c Counter) { m.counters[c]++ }

// Add increments a counter by n.
func (m *Metrics) Add(c Counter, n uint64) { m.counters[c] += n }

// Count reports a counter's current value.
func (m *Metrics) Count(c Counter) uint64 { return m.counters[c] }

// Snapshot captures the registry and the clock's attribution state as an
// immutable value.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Cycles:      m.clock.Cycles(),
		Attribution: m.clock.Buckets(),
		Counters:    m.counters,
	}
}

// Snapshot is an immutable point-in-time view of one machine's metrics:
// the clock value, the cycle-attribution buckets, and every counter. It is
// a plain value type — snapshots from different machines merge with Add,
// and merging is associative, so aggregation across the worker pool is
// order-independent.
type Snapshot struct {
	Cycles      uint64
	Attribution sim.Buckets
	Counters    [NumCounters]uint64
}

// Add returns the element-wise sum of two snapshots (for merging the
// machines of a multi-run cell or a whole experiment).
func (s Snapshot) Add(o Snapshot) Snapshot {
	out := s
	out.Cycles += o.Cycles
	for i := range out.Attribution {
		out.Attribution[i] += o.Attribution[i]
	}
	for i := range out.Counters {
		out.Counters[i] += o.Counters[i]
	}
	return out
}

// Counter reports one counter's value.
func (s Snapshot) Counter(c Counter) uint64 { return s.Counters[c] }

// Share reports the fraction of all cycles attributed to cat (0 when the
// snapshot is empty).
func (s Snapshot) Share(cat sim.Category) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Attribution[cat]) / float64(s.Cycles)
}

// Check verifies the attribution invariant: the buckets must sum exactly
// to the cycle count. A non-nil error means cycles were advanced outside
// the attribution accounting — a bug by construction, since sim.Clock
// buckets every advance.
func (s Snapshot) Check() error {
	if sum := s.Attribution.Sum(); sum != s.Cycles {
		return fmt.Errorf("metrics: attribution buckets sum to %d, clock at %d (drift %d)",
			sum, s.Cycles, int64(s.Cycles)-int64(sum))
	}
	return nil
}

// MarshalJSON renders the snapshot with stable field and key order:
//
//	{"cycles":N,
//	 "attribution":{"compute":N,"paging":N,"crypto":N,"fault":N,"policy":N},
//	 "counters":{"cpu.eenter":N, ...}}
//
// Attribution always lists every category; counters list only non-zero
// values, in declaration order. The byte stream is deterministic, which
// the experiment determinism tests rely on.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"cycles":`)
	b.WriteString(strconv.FormatUint(s.Cycles, 10))
	b.WriteString(`,"attribution":{`)
	for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
		if cat > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", cat.String(), s.Attribution[cat])
	}
	b.WriteString(`},"counters":{`)
	first := true
	for c := Counter(0); c < NumCounters; c++ {
		if s.Counters[c] == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:%d", c.Name(), s.Counters[c])
	}
	b.WriteString("}}")
	return b.Bytes(), nil
}

// UnmarshalJSON parses the MarshalJSON form back into a snapshot. Unknown
// categories or counter names are ignored (a newer writer adds names; an
// older reader still parses everything it knows).
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var raw struct {
		Cycles      uint64            `json:"cycles"`
		Attribution map[string]uint64 `json:"attribution"`
		Counters    map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*s = Snapshot{Cycles: raw.Cycles}
	for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
		s.Attribution[cat] = raw.Attribution[cat.String()]
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c] = raw.Counters[c.Name()]
	}
	return nil
}
