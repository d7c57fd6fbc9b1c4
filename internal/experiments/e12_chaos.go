package experiments

import (
	"encoding/binary"
	"fmt"

	"autarky/internal/core"
	"autarky/internal/fault"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// E12 — chaos: a deterministic fault-injection sweep across the recovery
// ladder. Each cell runs the same stateful workload under a seeded fault
// plan (blob corruption, truncation, stale replay, sustained unavailability
// outages, latency spikes) with one of four recovery configurations:
//
//	none              faults hit the driver directly; any failure terminates
//	retry             capped exponential backoff re-rolls transient outages
//	retry+fb          a degraded-mode mirror absorbs what retry cannot
//	retry+fb+restore  periodic sealed checkpoints; terminations restore
//
// The ladder separates the failure classes: per-operation retry absorbs
// instantaneous unavailability but not sustained outages; the fallback
// mirror absorbs outages but never integrity failures (a tampered blob
// must terminate — that is the security property); only checkpoint/restore
// recovers from terminations, so it alone reaches full survival at every
// fault rate. Surviving runs must produce the fault-free checksum —
// recovery is only recovery if the state comes back right.

// E12Params sizes the experiment.
type E12Params struct {
	FaultRates      []float64 // total per-operation fault probability, per cell column
	Reps            int       // independent repetitions per cell (distinct plan seeds)
	Rounds          int       // workload rounds to complete
	HeapPages       int       // enclave heap (page 0 holds cursor + checksum)
	QuotaPages      int       // EPC quota (< HeapPages to force paging traffic)
	CheckpointEvery int       // rounds per execution chunk between checkpoints
	MaxRestores     int       // restore budget per repetition
	OutageCycles    uint64    // sustained-outage window armed by each unavailability
	Seed            uint64
}

// DefaultE12Params returns the test-scale configuration: enough paging
// traffic per round that every fault kind gets exercised, rates spanning
// "occasionally hostile" to "clearly hostile", and outages long enough to
// outlive the default retry backoff (which is what separates the fallback
// column from the retry column).
func DefaultE12Params() E12Params {
	return E12Params{
		FaultRates:      []float64{0, 0.002, 0.01},
		Reps:            4,
		Rounds:          600,
		HeapPages:       48,
		QuotaPages:      20,
		CheckpointEvery: 120,
		MaxRestores:     40,
		OutageCycles:    150_000,
		Seed:            0xE12,
	}
}

// e12Mode is one rung of the recovery ladder.
type e12Mode struct {
	name     string
	retry    bool
	fallback bool
	restore  bool
}

func e12Modes() []e12Mode {
	return []e12Mode{
		{name: "none"},
		{name: "retry", retry: true},
		{name: "retry+fb", retry: true, fallback: true},
		{name: "retry+fb+restore", retry: true, fallback: true, restore: true},
	}
}

// e12Plan distributes one total fault rate across the kinds: half the mass
// on (outage-arming) unavailability — the recoverable class — and the rest
// split over integrity faults and latency spikes.
func e12Plan(p E12Params, rate float64, seed uint64) fault.Plan {
	if rate == 0 {
		return fault.Plan{Seed: seed}
	}
	return fault.Plan{
		Seed:         seed,
		PCorrupt:     0.20 * rate,
		PTruncate:    0.10 * rate,
		PReplay:      0.10 * rate,
		PUnavail:     0.50 * rate,
		PDelay:       0.10 * rate,
		DelayCycles:  2_000,
		OutageCycles: p.OutageCycles,
	}
}

// e12Reference computes the checksum a fault-free run produces — the value
// every surviving repetition must reproduce, restores included.
func e12Reference(p E12Params) uint64 {
	var sum uint64
	for r := uint64(0); r < uint64(p.Rounds); r++ {
		idx := 1 + sim.Mix(p.Seed, r)%uint64(p.HeapPages-1)
		sum ^= sim.Mix(p.Seed, r, idx)
	}
	return sum
}

// E12Row is one (fault rate, recovery mode) cell.
type E12Row struct {
	Rate          float64
	Mode          string
	Survived      int     // repetitions that completed all rounds
	Reps          int     // repetitions run
	Terminations  uint64  // enclave deaths across the reps (recovered or not)
	Injected      uint64  // faults injected across the reps
	Retries       uint64  // backend retries across the reps
	Giveups       uint64  // retry exhaustions
	Fallbacks     uint64  // operations absorbed by the mirror
	Restores      uint64  // successful checkpoint restores
	RestoreCycles uint64  // cycles spent restoring, end to end
	AvgMCycles    float64 // mean machine cycles per repetition, in millions
}

// E12Result is the experiment output.
type E12Result struct {
	Rows    []E12Row
	Metrics []CellMetrics
}

// RunE12 executes one cell per (fault rate, recovery mode) pair.
func RunE12(p E12Params) E12Result {
	rates, modes := p.FaultRates, e12Modes()
	ref := e12Reference(p)
	cells, cm := runCells("E12", len(rates)*len(modes), func(i int, rec *cellRecorder) E12Row {
		return runE12Cell(rec, p, rates[i/len(modes)], modes[i%len(modes)], ref)
	})
	return E12Result{Rows: cells, Metrics: cm}
}

func runE12Cell(rec *cellRecorder, p E12Params, rate float64, mode e12Mode, ref uint64) E12Row {
	row := E12Row{Rate: rate, Mode: mode.name, Reps: p.Reps}
	var totalCycles uint64
	for rep := 0; rep < p.Reps; rep++ {
		seed := sim.Mix(p.Seed, uint64(rep), 0xFA)
		res := runE12Rep(p, rate, mode, seed)
		rec.record(fmt.Sprintf("p%g/%s/rep%d", rate, mode.name, rep), res.snap)
		if res.survived {
			row.Survived++
			if res.checksum != ref {
				panic(fmt.Sprintf("E12 (%g/%s/rep%d): surviving run checksum %#x != fault-free reference %#x",
					rate, mode.name, rep, res.checksum, ref))
			}
		}
		row.Terminations += res.terminations
		row.Injected += res.snap.Counter(metrics.CntFaultsInjected)
		row.Retries += res.snap.Counter(metrics.CntBackendRetries)
		row.Giveups += res.snap.Counter(metrics.CntBackendGiveups)
		row.Fallbacks += res.snap.Counter(metrics.CntBackendFallbacks)
		row.Restores += res.snap.Counter(metrics.CntRestores)
		row.RestoreCycles += res.snap.Counter(metrics.CntRestoreCycles)
		totalCycles += res.snap.Cycles
	}
	row.AvgMCycles = float64(totalCycles) / float64(p.Reps) / 1e6
	return row
}

// e12RepResult is one repetition's outcome.
type e12RepResult struct {
	survived     bool
	checksum     uint64
	terminations uint64
	snap         metrics.Snapshot
}

// runE12Rep runs one machine to completion (or death) under one plan.
func runE12Rep(p E12Params, rate float64, mode e12Mode, seed uint64) e12RepResult {
	k := newHost(sim.DefaultCosts())
	var backend pagestore.PagingBackend = fault.NewBackend(k.Store, e12Plan(p, rate, seed), k.Clock)
	if mode.retry {
		backend = hostos.NewRetryBackend(backend, hostos.DefaultRetryPolicy(), k.Clock)
	}
	if mode.fallback {
		backend = pagestore.NewFallbackBackend(backend, pagestore.NewStore(), k.Clock, *k.Costs)
	}
	k.SetBackend(backend)

	img := libos.AppImage{
		Name:      "chaos",
		Libraries: []libos.Library{{Name: "libchaos.so", Pages: 2}},
		HeapPages: p.HeapPages,
	}
	cfg := libos.Config{
		SelfPaging:     true,
		Mech:           core.MechSGX1,
		Policy:         libos.PolicyRateLimit,
		RateLimitBurst: 1 << 40,
		QuotaPages:     p.QuotaPages,
	}
	done := func(survived bool, checksum, terms uint64) e12RepResult {
		return e12RepResult{
			survived:     survived,
			checksum:     checksum,
			terminations: terms,
			snap:         metrics.Of(k.Clock).Snapshot(),
		}
	}

	proc, err := libos.Load(k, img, cfg)
	if err != nil {
		// Load-time paging already crossed the faulty backend; a machine
		// without recovery can die before its first instruction.
		return done(false, 0, 1)
	}

	heap := proc.Heap.PageVAs()
	state := heap[0] // cursor (8B) + checksum (8B) live in heap page 0
	var lastCursor, lastSum uint64
	chunk := func(ctx *core.Context) {
		var buf [16]byte
		ctx.Read(state, buf[:])
		cursor := binary.LittleEndian.Uint64(buf[0:8])
		sum := binary.LittleEndian.Uint64(buf[8:16])
		var tok [8]byte
		for n := 0; n < p.CheckpointEvery && cursor < uint64(p.Rounds); n++ {
			idx := 1 + sim.Mix(p.Seed, cursor)%uint64(len(heap)-1)
			token := sim.Mix(p.Seed, cursor, idx)
			binary.LittleEndian.PutUint64(tok[:], token)
			ctx.Write(heap[idx], tok[:])
			sum ^= token
			cursor++
			ctx.Progress(1)
		}
		binary.LittleEndian.PutUint64(buf[0:8], cursor)
		binary.LittleEndian.PutUint64(buf[8:16], sum)
		ctx.Write(state, buf[:])
		lastCursor, lastSum = cursor, sum
	}

	var cp *libos.Checkpoint
	var terminations uint64
	restores := 0
	for {
		if mode.restore {
			// A fresh checkpoint after every completed chunk; a capture that
			// terminates the enclave keeps the previous checkpoint and falls
			// through to the restore path below.
			if ncp, err := proc.Checkpoint(); err == nil {
				cp = ncp
			}
		}
		err := proc.Run(chunk)
		if err == nil {
			if lastCursor >= uint64(p.Rounds) {
				return done(true, lastSum, terminations)
			}
			continue
		}
		terminations++
		if !mode.restore || cp == nil || restores >= p.MaxRestores {
			return done(false, 0, terminations)
		}
		// Restore until one sticks or the budget runs out; a restore that
		// itself hits faults leaves a dead incarnation the next attempt
		// tears down.
		recovered := false
		for restores < p.MaxRestores {
			restores++
			np, rerr := libos.Restore(k, cp)
			if rerr == nil {
				proc = np
				recovered = true
				break
			}
			terminations++
		}
		if !recovered {
			return done(false, 0, terminations)
		}
	}
}

// Table renders the result.
func (r E12Result) Table() *Table {
	t := &Table{
		Title: "E12: chaos — seeded fault injection across the recovery ladder",
		Note: "same workload and fault plans per row group; surviving runs verified against the fault-free checksum;\n" +
			"expected shape: retry absorbs transient unavailability, the fallback mirror absorbs sustained outages,\n" +
			"and only checkpoint/restore survives integrity faults (which must terminate — that is the defense)",
		Header: []string{"fault rate", "recovery", "survival", "terms",
			"injected", "retries", "giveups", "fallbacks", "restores", "restore Mcyc", "avg Mcyc"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%g", row.Rate),
			row.Mode,
			fmt.Sprintf("%d/%d", row.Survived, row.Reps),
			fmt.Sprintf("%d", row.Terminations),
			fmt.Sprintf("%d", row.Injected),
			fmt.Sprintf("%d", row.Retries),
			fmt.Sprintf("%d", row.Giveups),
			fmt.Sprintf("%d", row.Fallbacks),
			fmt.Sprintf("%d", row.Restores),
			fmt.Sprintf("%.2f", float64(row.RestoreCycles)/1e6),
			fmt.Sprintf("%.2f", row.AvgMCycles),
		)
	}
	t.Metrics = r.Metrics
	return t
}
