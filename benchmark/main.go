// Command benchmark measures the Autarky simulator end to end on four
// fixed-work workloads, driving it only through its public entry points and
// timing the calls into each layer from outside.
//
//	go run . -workload serve-paging -seed 1 [-seconds 10] [-trace 1 [-spans file]]
//
// A workload's fixed work is a few cells, each a fresh machine or fleet
// with its own seeded traffic. A run repeats that work (a rep) until
// -seconds have passed, and at least three times. Host metrics are medians
// over the reps, in calibrated seconds (see reference.go); simulated metrics
// must be identical in every rep, which makes each run its own determinism
// check. With -trace 1 one more rep runs traced and the per-layer metrics
// are reported instead of the end-to-end ones. The last line of standard
// output is the result:
//
//	{"correct":true,"attempted":N,"failed":N,"metrics":{"name":{"value":V,"unit":U},...}}
//
// The command exits 1 if any correctness check fails and 2 on bad usage.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"autarky"
	"autarky/internal/metrics"
)

// minReps is the fewest measured reps a run makes, however long they take.
const minReps = 3

// rep is one pass over a workload's fixed work: its cells, each a fresh
// system built, run to completion and read out.
type rep struct {
	sim    simResult
	checks checks

	setup, run         time.Duration // calibrated (see calibrate), summed over cells
	wallRun            time.Duration // uncalibrated, summed over cells
	allocs, allocBytes uint64        // during the run phases
	gcs                uint32        // during the run phases
	liveHeap           uint64        // traced reps: the largest heap left after a run phase
	tr                 *tracer
}

func runRep(w workload, seed uint64, scale float64, tr *tracer) (rep, error) {
	rp := rep{tr: tr}
	hist := metrics.NewHistogram(histRange)
	ref := calibrate()
	for k := 0; k < w.cells; k++ {
		setup, run, err := rp.runCell(w, subseed(seed, uint64(k)), k, scale, hist)
		if err != nil {
			return rp, err
		}
		next := calibrate()
		rp.setup += calibrated(setup, ref, next)
		rp.run += calibrated(run, ref, next)
		rp.wallRun += run
		ref = next
	}
	ph := tr.open(spReport)
	rp.sim.summarize(hist, w.limit, &rp.checks)
	tr.close(ph)
	return rp, nil
}

// runCell builds, runs and reads out one cell, returning its host set-up
// and run times.
func (rp *rep) runCell(w workload, seed uint64, cell int, scale float64, hist *autarky.Histogram) (setup, run time.Duration, err error) {
	tr := rp.tr
	start := time.Now()
	ph := tr.open(spSetup)
	r, err := w.build(seed, cell, scale, tr)
	tr.close(ph)
	setup = time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	before := r.snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph = tr.open(spRun)
	start = time.Now()
	runErr := r.run()
	run = time.Since(start)
	tr.close(ph)
	runtime.ReadMemStats(&m1)
	rp.allocs += m1.Mallocs - m0.Mallocs
	rp.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	rp.gcs += m1.NumGC - m0.NumGC
	ph = tr.open(spReport)
	collect(r, before, runErr, &rp.sim, hist, &rp.checks)
	tr.close(ph)
	if tr != nil {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		rp.liveHeap = max(rp.liveHeap, m1.HeapAlloc)
	}
	runtime.KeepAlive(r)
	return setup, run, nil
}

// result is one run's outcome.
type result struct {
	workload string
	seed     uint64
	reps     []rep
	traced   *rep // with tracing only
	checks   checks
	endToEnd []metric
	layers   []metric // with tracing only
}

// measure runs the workload's reps, then the traced rep if asked for.
func measure(w workload, seed uint64, scale, seconds float64, traced bool) (*result, error) {
	res := &result{workload: w.name, seed: seed}
	start := time.Now()
	for len(res.reps) < minReps || time.Since(start).Seconds() < seconds {
		rp, err := runRep(w, seed, scale, nil)
		if err != nil {
			return nil, err
		}
		res.reps = append(res.reps, rp)
	}
	all := res.reps
	if traced {
		// One handler span per request, about one backend span per blob.
		first := res.reps[0].sim
		capacity := int(first.attempted+2*(first.blobs.evicts+first.blobs.fetches)) + 1024
		rp, err := runRep(w, seed, scale, newTracer(capacity))
		if err != nil {
			return nil, err
		}
		res.traced = &rp
		all = append(all[:len(all):len(all)], rp)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	for i, rp := range all {
		for j, err := range rp.checks {
			res.checks.note(j, err)
		}
		if rp.sim != all[0].sim {
			res.checks.note(chkDeterministic, fmt.Errorf("rep %d's simulated results differ from rep 0's", i))
		}
	}
	res.endToEnd = endToEnd(res.reps, rss)
	if traced {
		res.layers = layerMetrics(res.reps, res.traced)
	}
	return res, nil
}

// details is the full report, printed before the result line.
func (r *result) details() object {
	s := r.reps[0].sim
	checks := make(object, numChecks)
	for i, err := range r.checks {
		checks[i] = field{checkNames[i], err == nil}
	}
	out := object{
		{"workload", r.workload},
		{"seed", r.seed},
		{"reps", len(r.reps)},
		{"ops", object{{"attempted", s.attempted}, {"failed", s.attempted - s.served}, {"served", s.served}}},
		{"metrics", metricsObject(r.endToEnd)},
	}
	if r.traced != nil {
		out = append(out, field{"layers", metricsObject(r.layers)}, field{"trace", r.traceSummary()})
	}
	return append(out, field{"checks", checks})
}

// traceSummary reports each span name's self time, the run span they must
// add up to, and the tracing overhead on sim_req_per_s.
func (r *result) traceSummary() object {
	t := r.traced.tr
	self, runTree := t.selfTimes()
	selfNs := make(object, numSpanNames)
	for name, ns := range self {
		selfNs[name] = field{spanNames[name], ns}
	}
	untraced := median(r.reps, func(rp rep) float64 { return rp.run.Seconds() })
	// Calibrated times, so a change in the host's speed between the reps
	// does not pass for tracing overhead.
	return object{
		{"spans", len(t.spans)},
		{"run_ns", r.traced.wallRun.Nanoseconds()},
		{"run_self_sum_ns", runTree},
		{"self_ns", selfNs},
		{"overhead", r.traced.run.Seconds()/untraced - 1},
	}
}

// line is the final result line.
func (r *result) line() object {
	s := r.reps[0].sim
	ms := r.endToEnd
	if r.traced != nil {
		ms = r.layers
	}
	return object{
		{"correct", r.checks.ok()},
		{"attempted", s.attempted},
		{"failed", s.attempted - s.served},
		{"metrics", metricsObject(ms)},
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-paging, serve-resident, kv-mixed or fleet-chaos")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "keep repeating the workload until this many seconds have passed")
	trace := flag.Int("trace", 0, "1 = add a traced rep and report the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, also write the traced rep's spans to this JSON file")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: bad usage (workload %q, trace %d)\n", *name, *trace)
		flag.Usage()
		os.Exit(2)
	}
	// The simulation is one logical thread whose tasks hand the CPU to each
	// other through channels; on one P those handoffs stay on one OS thread,
	// which is both faster and steadier than waking a second one.
	runtime.GOMAXPROCS(1)

	res, err := measure(w, *seed, 1, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *spans != "" && res.traced != nil {
		if err := res.traced.tr.write(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	for i, err := range res.checks {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: check %s failed: %v\n", checkNames[i], err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	for _, o := range []object{res.details(), res.line()} {
		if err := enc.Encode(o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if !res.checks.ok() {
		os.Exit(1)
	}
}
