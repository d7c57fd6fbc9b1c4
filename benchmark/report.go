package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"autarky"
	"autarky/internal/metrics"
)

// simResult is everything one rep measures in simulated terms, summed over
// its cells. The simulation is deterministic, so every rep of a run, traced
// or not, must produce an identical simResult.
type simResult struct {
	attempted, served                 uint64
	backpressure, timeouts, idlePolls uint64
	handlerCycles, handlerCalls       uint64
	serving, overhead                 uint64 // scheduler-attributed cycles
	delta                             autarky.MetricsSnapshot
	blobs                             backendCounts
	mismatches                        uint64
	downtime                          uint64 // failure downtime, summed over tenants
	tenantCycles                      uint64 // tenants x run cycles: the availability base
	rounds                            int

	// From the latency histogram merged over every tenant of every cell.
	p50, p99, p999, saturated uint64
	sojournSum                uint64
	good                      uint64 // served within the workload's limit
}

// The correctness checks, in report order.
const (
	chkRun = iota
	chkAttribution
	chkAccounting
	chkTraffic
	chkShadowTags
	chkUnsaturated
	chkDeterministic
	numChecks
)

var checkNames = [numChecks]string{"run", "attribution", "accounting", "traffic", "shadow_tags", "unsaturated", "deterministic"}

// checks keeps the first failure of each check.
type checks [numChecks]error

func (c *checks) note(i int, err error) {
	if err != nil && c[i] == nil {
		c[i] = err
	}
}

func (c *checks) ok() bool {
	for _, err := range c {
		if err != nil {
			return false
		}
	}
	return true
}

// collect adds a finished cell's results into s and hist, and checks it.
func collect(r *rig, before autarky.MetricsSnapshot, runErr error, s *simResult, hist *autarky.Histogram, c *checks) {
	after := r.snapshot()
	s.attempted += uint64(len(r.tenants) * r.requests)
	s.delta = s.delta.Add(subSnapshot(after, before))
	s.blobs.evicts += r.blobs.evicts
	s.blobs.fetches += r.blobs.fetches
	s.blobs.bytes += r.blobs.bytes
	s.tenantCycles += uint64(len(r.tenants)) * after.Cycles
	serving, overhead, err := r.account()
	s.serving += serving
	s.overhead += overhead
	c.note(chkAccounting, err)
	c.note(chkAttribution, after.Check())
	if r.fleet != nil {
		s.downtime += r.fleet.Stats().FailureDowntime
		s.rounds += r.fleet.Round()
		for _, ft := range r.fleet.Tenants() {
			if err := ft.Err(); err != nil {
				c.note(chkRun, fmt.Errorf("%s: %w", ft.Name, err))
			}
		}
	}
	c.note(chkRun, runErr)
	for _, t := range r.tenants {
		if t.front == nil {
			c.note(chkTraffic, fmt.Errorf("tenant %d was never admitted", t.idx))
			continue
		}
		st := t.front.Stats()
		pending := 0
		if t.svc != nil {
			pending = t.svc.PendingSchedule()
		}
		c.note(chkTraffic, failIf(st.Offered+uint64(pending) != uint64(r.requests) ||
			st.Offered != st.Admitted+st.Backpressure ||
			st.Admitted != st.Served+st.Errors+st.Timeouts+st.Dropped,
			"tenant %d: %d scheduled, %+v, %d never fired", t.idx, r.requests, st, pending))
		s.served += st.Served
		s.backpressure += st.Backpressure
		s.timeouts += st.Timeouts
		s.idlePolls += st.IdlePolls
		s.handlerCycles += t.handlerCycles
		s.handlerCalls += t.handlerCalls
		s.mismatches += t.mismatches
		hist.Merge(t.front.Hist())
	}
}

// summarize reads the latency figures out of the rep's merged histogram and
// applies the rep-wide checks.
func (s *simResult) summarize(hist *autarky.Histogram, limit uint64, c *checks) {
	s.p50, s.p99, s.p999 = hist.Percentile(0.50), hist.Percentile(0.99), hist.Percentile(0.999)
	s.saturated = hist.Saturated()
	s.sojournSum = hist.Sum()
	s.good = countAtMost(hist, limit)
	c.note(chkShadowTags, failIf(s.mismatches != 0, "%d gets read a stale or foreign tag", s.mismatches))
	c.note(chkUnsaturated, failIf(s.saturated != 0, "%d sojourns clamped at %d cycles", s.saturated, histRange))
}

func failIf(bad bool, format string, args ...any) error {
	if bad {
		return fmt.Errorf(format, args...)
	}
	return nil
}

func subSnapshot(a, b autarky.MetricsSnapshot) autarky.MetricsSnapshot {
	out := a
	out.Cycles -= b.Cycles
	for i := range out.Attribution {
		out.Attribution[i] -= b.Attribution[i]
	}
	for i := range out.Counters {
		out.Counters[i] -= b.Counters[i]
	}
	return out
}

// countAtMost counts the recorded sojourns no longer than limit, by binary
// search over exact nearest-rank percentiles (rank r is q = (r-0.5)/n).
func countAtMost(h *autarky.Histogram, limit uint64) uint64 {
	n := h.Count()
	lo, hi := uint64(0), n
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if h.Percentile((float64(mid)-0.5)/float64(n)) <= limit {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd computes the user-visible metrics: host ones as the median over
// the measured reps, simulated ones from any rep (they are identical).
func endToEnd(reps []rep, rssMB float64) []metric {
	s := reps[0].sim
	return []metric{
		{"setup_s", median(reps, func(r rep) float64 { return r.setup.Seconds() }), "s"},
		{"sim_req_per_s", median(reps, func(r rep) float64 { return float64(s.served) / r.run.Seconds() }), "req/s"},
		{"peak_rss_mb", rssMB, "MB"},
		{"p50_cycles", float64(s.p50), "cycles"},
		{"p99_cycles", float64(s.p99), "cycles"},
		{"p999_cycles", float64(s.p999), "cycles"},
		{"slo_goodput", ratio(s.good, s.attempted), "fraction"},
		{"sim_cycles_per_req", ratio(s.serving, s.served), "cycles"},
		// A single machine has no failure downtime: availability 1.
		{"availability", 1 - ratio(s.downtime, s.tenantCycles), "fraction"},
	}
}

// layerMetrics computes the per-layer metrics: counts from the simulation,
// host counters as the median over the measured reps, and host times from
// the traced rep's spans.
func layerMetrics(reps []rep, traced *rep) []metric {
	s := reps[0].sim
	c := func(cnt metrics.Counter) float64 { return float64(s.delta.Counter(cnt)) }
	perReq := func(n uint64) float64 { return ratio(n, s.served) }
	cat := func(k autarky.CycleCategory) float64 { return float64(s.delta.Attribution[k]) }
	hostPerReq := func(f func(r rep) uint64) float64 {
		return median(reps, func(r rep) float64 { return perReq(f(r)) })
	}
	dur, n := traced.tr.totals()
	self, _ := traced.tr.selfTimes()
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	perSpan := func(ns int64, count uint64) float64 {
		if count == 0 {
			return 0
		}
		return float64(ns) / float64(count)
	}
	handlerMean := ratio(s.handlerCycles, s.handlerCalls)
	return []metric{
		{"service.queue_cycles_mean", ratio(s.sojournSum, s.served) - handlerMean, "cycles"},
		{"service.backpressure", float64(s.backpressure), "count"},
		{"service.timeouts", float64(s.timeouts), "count"},
		{"service.fail_frac", ratio(s.attempted-s.served, s.attempted), "fraction"},
		{"service.idle_polls_per_req", perReq(s.idlePolls), "count/req"},
		{"service.preload_s", secs(dur[spPreload]), "s"},
		{"sched.dispatches_per_req", perReq(s.delta.Counter(metrics.CntSchedDispatches)), "count/req"},
		{"sched.switches", c(metrics.CntSchedSwitches), "count"},
		{"sched.preemptions", c(metrics.CntSchedPreemptions), "count"},
		{"sched.overhead_cycles", float64(s.overhead), "cycles"},
		{"sched.self_s", secs(self[spRun]), "s"},
		{"core.faults_per_req", perReq(s.delta.Counter(metrics.CntSelfFaults)), "count/req"},
		{"core.pages_fetched", c(metrics.CntPagesFetched), "count"},
		{"core.pages_evicted", c(metrics.CntPagesEvicted), "count"},
		{"core.cluster_swap_ins", c(metrics.CntClusterSwapIns), "count"},
		{"core.fault_cycles", cat(autarky.CatFault), "cycles"},
		{"core.policy_cycles", cat(autarky.CatPolicy), "cycles"},
		{"core.handler_cycles_mean", handlerMean, "cycles"},
		{"core.access_ns", perSpan(self[spHandler], uint64(n[spHandler])), "ns"},
		{"sgx.eenter", c(metrics.CntEnters), "count"},
		{"sgx.aex", c(metrics.CntAEXs), "count"},
		{"sgx.eaug", c(metrics.CntEAUG), "count"},
		{"sgx.eaccept", c(metrics.CntEACCEPT), "count"},
		{"sgx.ewb", c(metrics.CntEWB), "count"},
		{"sgx.eldu", c(metrics.CntELDU), "count"},
		{"sgx.paging_cycles", cat(autarky.CatPaging), "cycles"},
		{"sgx.crypto_cycles", cat(autarky.CatCrypto), "cycles"},
		{"mmu.tlb_hit_ratio", ratio(s.delta.Counter(metrics.CntTLBHits), s.delta.Counter(metrics.CntTLBHits)+s.delta.Counter(metrics.CntTLBMisses)), "fraction"},
		{"mmu.tlb_misses_per_req", perReq(s.delta.Counter(metrics.CntTLBMisses)), "count/req"},
		{"mmu.tlb_flushes", c(metrics.CntTLBFlushes), "count"},
		{"pagestore.evicts", float64(s.blobs.evicts), "count"},
		{"pagestore.fetches", float64(s.blobs.fetches), "count"},
		{"pagestore.cache_hit_ratio", ratio(s.delta.Counter(metrics.CntBackendHits), s.delta.Counter(metrics.CntBackendHits)+s.delta.Counter(metrics.CntBackendMisses)), "fraction"},
		{"pagestore.bytes", float64(s.blobs.bytes), "bytes"},
		{"pagestore.evict_ns", perSpan(dur[spEvict]+dur[spEvictBatch], s.blobs.evicts), "ns"},
		{"pagestore.fetch_ns", perSpan(dur[spFetch]+dur[spFetchBatch], s.blobs.fetches), "ns"},
		{"oram.real", c(metrics.CntORAMReal), "count"},
		{"oram.dummy", c(metrics.CntORAMDummy), "count"},
		{"hostos.driver_calls", c(metrics.CntDriverCalls), "count"},
		{"hostos.page_ins", c(metrics.CntOSPageIns), "count"},
		{"hostos.page_outs", c(metrics.CntOSPageOuts), "count"},
		{"libos.load_s", secs(dur[spLoad]), "s"},
		{"libos.checkpoints", c(metrics.CntCheckpoints), "count"},
		{"libos.checkpoint_pages", c(metrics.CntCheckpointPages), "count"},
		{"libos.migrations", c(metrics.CntMigrations), "count"},
		{"libos.migration_pages", c(metrics.CntMigrationPages), "count"},
		{"libos.migration_downtime_cycles", c(metrics.CntMigrationDowntime), "cycles"},
		{"fleet.rounds", float64(s.rounds), "count"},
		{"fleet.rebalances", c(metrics.CntFleetRebalances), "count"},
		{"fleet.ns_per_round", perSpan(dur[spRun], uint64(s.rounds)), "ns"},
		{"chaos.failures", c(metrics.CntChaosFailures), "count"},
		{"chaos.heartbeats_missed", c(metrics.CntChaosHeartbeatMiss), "count"},
		{"chaos.failovers", c(metrics.CntChaosFailovers), "count"},
		{"chaos.restarts", c(metrics.CntChaosRestarts), "count"},
		{"chaos.shed_tenants", c(metrics.CntChaosShed), "count"},
		{"chaos.downtime_cycles", c(metrics.CntChaosDowntime), "cycles"},
		{"chaos.lost_requests", c(metrics.CntChaosLostRequests), "count"},
		{"chaos.recovery_point_age", c(metrics.CntChaosRPAge), "cycles"},
		{"host.wall_req_per_s", median(reps, func(r rep) float64 { return float64(s.served) / r.wallRun.Seconds() }), "req/s"},
		{"host.allocs_per_req", hostPerReq(func(r rep) uint64 { return r.allocs }), "count/req"},
		{"host.alloc_bytes_per_req", hostPerReq(func(r rep) uint64 { return r.allocBytes }), "bytes/req"},
		{"host.gc_count", median(reps, func(r rep) float64 { return float64(r.gcs) }), "count"},
		{"host.live_heap_mb", float64(traced.liveHeap) / (1 << 20), "MB"},
	}
}

func median(reps []rep, f func(rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// object is a JSON object that keeps its keys in insertion order.
type object []field

type field struct {
	key string
	val any
}

func (o object) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(f.key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(f.val)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.key, err)
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// metricsObject renders metrics as {"name": {"value": v, "unit": u}, ...}.
func metricsObject(ms []metric) object {
	o := make(object, len(ms))
	for i, m := range ms {
		o[i] = field{m.name, object{{"value", m.value}, {"unit", m.unit}}}
	}
	return o
}
