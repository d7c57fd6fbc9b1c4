package experiments

import (
	"errors"
	"fmt"

	"autarky/internal/attack"
	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
	"autarky/internal/trace"
	"autarky/internal/workloads"
)

// E7 — security evaluation: the published controlled-channel attacks run
// against the vanilla SGX model (where they recover secrets) and against
// Autarky (where they are detected and the enclave terminates before
// leaking). Five scenarios:
//
//   - Hunspell word recovery via page-fault injection (Xu et al.)
//   - Hunspell word recovery via wrong mappings (the Foreshadow precursor)
//   - FreeType text recovery via execute-permission traps (control flow)
//   - libjpeg image (busy-block) recovery via fault counting on the IDCT
//     working buffer
//   - Hunspell access recovery via the silent A/D-bit monitor
//     (Wang et al.), which induces no faults at all on vanilla SGX
//
// plus the ordering attacks (e7_orderings.go): lifecycle interleavings
// written in the model checker's trace format and executed through
// internal/orderly, pairing each legacy outcome with Autarky's.

// E7Scenario is one attack outcome pair.
type E7Scenario struct {
	Name string
	// Vanilla results. A negative recovery renders as "n/a" — the legacy
	// machine cannot express the attack at all.
	VanillaRecovery float64 // fraction of the secret recovered
	VanillaDetected bool    // vanilla never detects
	VanillaFaults   int     // enclave faults the vanilla OS observed
	// Autarky results.
	AutarkyRecovery   float64
	AutarkyTerminated bool
	AutarkyReason     sgx.TerminationReason
	AutarkyFaults     int // enclave faults the Autarky OS observed
	// AutarkyOutcome, when set, overrides the rendered outcome column
	// (the ordering attacks report refusal phases, not just termination).
	AutarkyOutcome string
	// MaskedOnly reports that every fault the OS observed under Autarky
	// carried only the enclave base address (the §5.1.2 guarantee). It
	// holds trivially when AutarkyFaults is 0.
	MaskedOnly bool
}

// E7Result is the experiment output.
type E7Result struct {
	Scenarios []E7Scenario
	Metrics   []CellMetrics
}

// RunE7 executes all scenarios, one independent cell per attack (each cell
// runs its own vanilla and Autarky victim machines).
func RunE7() E7Result {
	scenarios := []func(*cellRecorder) E7Scenario{
		runE7Hunspell,
		runE7WrongMap,
		runE7FreeType,
		runE7JPEG,
		runE7ADBits,
	}
	for _, o := range e7Orderings() {
		o := o
		scenarios = append(scenarios, func(rec *cellRecorder) E7Scenario {
			return runE7Ordering(rec, o)
		})
	}
	out, cm := runCells("E7", len(scenarios), func(i int, rec *cellRecorder) E7Scenario {
		return scenarios[i](rec)
	})
	return E7Result{Scenarios: out, Metrics: cm}
}

// e7Sub labels the two victim machines of an attack cell.
func e7Sub(selfPaging bool) string {
	if selfPaging {
		return "autarky"
	}
	return "vanilla"
}

// e7Run is what one victim run showed its OS.
type e7Run struct {
	clock      *sim.Clock
	terminated bool
	reason     sgx.TerminationReason
	faults     int  // enclave faults the OS observed
	masked     bool // every observed fault carried only the enclave base
}

// runE7Victim builds img under rc on a fresh machine, attaches a fresh
// record of what its OS observes, and runs the victim. mount receives the
// loaded process and that record before the run; it may tune the machine,
// and returns the in-enclave body: the victim plus the armed adversary. A
// run error other than the enclave's termination is a harness bug and
// panics.
func runE7Victim(img libos.AppImage, rc RunConfig, mount func(p *libos.Process, seen *trace.Log) func(*core.Context)) e7Run {
	p, err := BuildProcess(img, rc)
	if err != nil {
		panic(err)
	}
	seen := &trace.Log{}
	p.Kernel.Observed = seen
	runErr := p.Run(mount(p, seen))
	r := e7Run{clock: p.Kernel.Clock}
	var term *sgx.TerminationError
	if errors.As(runErr, &term) {
		r.terminated, r.reason = true, term.Reason
	} else if runErr != nil {
		panic(fmt.Sprintf("E7 victim %s (%s): %v", img.Name, rc.label(), runErr))
	}
	faults := seen.Only(trace.KindFault)
	r.faults, r.masked = faults.Len(), allMasked(faults, p.Enclave().Base)
	return r
}

// e7Attack mounts one attack on a loaded victim, as runE7Victim's mount
// does, and also returns recovery, which reports after the run the
// fraction of the secret the body's captures reconstruct.
type e7Attack func(p *libos.Process) (body func(*core.Context), recovery func() float64)

// e7Pair mounts one attack on a pin-all vanilla victim and then on a
// pin-all Autarky victim, and records both machines under e7Sub.
func e7Pair(mrec *cellRecorder, name string, img libos.AppImage, mount e7Attack) E7Scenario {
	s := E7Scenario{Name: name}
	for _, selfPaging := range []bool{false, true} {
		var recovery func() float64
		rc := RunConfig{Config: libos.Config{SelfPaging: selfPaging, Policy: libos.PolicyPinAll}}
		r := runE7Victim(img, rc, func(p *libos.Process, _ *trace.Log) func(*core.Context) {
			body, score := mount(p)
			recovery = score
			return body
		})
		mrec.recordClock(e7Sub(selfPaging), r.clock)
		if selfPaging {
			s.AutarkyRecovery = recovery()
			s.AutarkyTerminated, s.AutarkyReason = r.terminated, r.reason
			s.AutarkyFaults, s.MaskedOnly = r.faults, r.masked
		} else {
			s.VanillaRecovery = recovery()
			s.VanillaDetected, s.VanillaFaults = r.terminated, r.faults
		}
	}
	return s
}

// e7HunspellEnv is the spell-checking victim the Hunspell attacks and E7b
// share: its dictionary layout and the secret words it is asked to check.
type e7HunspellEnv struct {
	cfg     workloads.HunspellConfig
	secrets []string
}

func e7HunspellSetup() e7HunspellEnv {
	// One bucket per page: word signatures are unambiguous at page
	// granularity, matching the sparse layout of real Hunspell dictionaries
	// the published attack exploited.
	cfg := workloads.HunspellConfig{
		Langs:          []string{"en_US"},
		WordsPerDict:   400,
		BucketsPerDict: 64,
		PagesPerDict:   64,
	}
	rng := sim.NewRand(0xE71)
	secrets := make([]string, 24)
	for i := range secrets {
		secrets[i] = workloads.Word("en_US", rng.Intn(cfg.WordsPerDict))
	}
	return e7HunspellEnv{cfg: cfg, secrets: secrets}
}

// image is the spell server's enclave image: its library and a heap that
// holds every dictionary.
func (env e7HunspellEnv) image() libos.AppImage {
	return libos.AppImage{
		Name:      "hunspell",
		Libraries: []libos.Library{{Name: "libhunspell.so", Pages: 4}},
		HeapPages: len(env.cfg.Langs)*env.cfg.PagesPerDict + 16,
	}
}

// build builds the spell checker inside the enclave, then runs the
// attacker's offline phase: per-word signatures precomputed from the
// public dictionary and binary layout.
func (env e7HunspellEnv) build(p *libos.Process, ctx *core.Context) (*workloads.Hunspell, *attack.SignatureMatcher) {
	h, err := workloads.BuildHunspell(p, ctx, env.cfg)
	if err != nil {
		panic(err)
	}
	d := h.Dicts["en_US"]
	matcher := attack.NewSignatureMatcher()
	for _, w := range d.Words {
		matcher.Learn(w, d.AccessTrace(w))
	}
	return h, matcher
}

// query serves the secret queries. The attacker segments its log per
// request (it sees request arrival on the socket): after each request it
// runs scan (nil for none), and when match pins the request's slice of log
// to one word, appends that word to recovered.
func (env e7HunspellEnv) query(ctx *core.Context, h *workloads.Hunspell, log *trace.Log, scan func(), match func(*trace.Log) []string, recovered *[]string) {
	for _, secret := range env.secrets {
		before := log.Len()
		if _, err := h.Check(ctx, "en_US", secret); err != nil {
			panic(err)
		}
		if scan != nil {
			scan()
		}
		if m := match(&trace.Log{Events: log.Events[before:]}); len(m) == 1 {
			*recovered = append(*recovered, m[0])
		}
	}
}

func runE7Hunspell(mrec *cellRecorder) E7Scenario {
	env := e7HunspellSetup()
	return e7Pair(mrec, "hunspell/page-fault-trace", env.image(), func(p *libos.Process) (func(*core.Context), func() float64) {
		var recovered []string
		return func(ctx *core.Context) {
			h, matcher := env.build(p, ctx)
			// Attacker arms the tracer on the dictionary's data pages.
			tracer := attack.NewPageFaultTracer(attack.ModeUnmap, h.Dicts["en_US"].Pages())
			p.Kernel.Adversary = tracer
			tracer.Arm(p.Kernel)
			env.query(ctx, h, &tracer.Log, nil, matcher.MatchExact, &recovered)
			tracer.Disarm(p.Kernel)
		}, func() float64 { return attack.RecoveryRate(recovered, env.secrets) }
	})
}

// runE7WrongMap is the remaining §2.2 induction variant — the OS maps a
// target VA at the wrong frame; the EPCM check faults (the Foreshadow
// precursor). Same victim and recovery as the unmap tracer.
func runE7WrongMap(mrec *cellRecorder) E7Scenario {
	env := e7HunspellSetup()
	return e7Pair(mrec, "hunspell/wrong-mapping", env.image(), func(p *libos.Process) (func(*core.Context), func() float64) {
		var recovered []string
		return func(ctx *core.Context) {
			h, matcher := env.build(p, ctx)
			// The decoy frame: the last heap page, never part of a lookup.
			decoy := p.Heap.Page(p.Heap.Pages - 1)
			ctx.Store(decoy)
			w := attack.NewWrongMapper(p.Kernel, h.Dicts["en_US"].Pages(), decoy)
			p.Kernel.Adversary = w
			w.Arm(p.Kernel)
			env.query(ctx, h, &w.Log, nil, matcher.MatchExact, &recovered)
			w.Disarm(p.Kernel)
		}, func() float64 { return attack.RecoveryRate(recovered, env.secrets) }
	})
}

func runE7FreeType(mrec *cellRecorder) E7Scenario {
	const secret = "SGX leaks control flow!"
	img := libos.AppImage{
		Name:      "freetype",
		Libraries: []libos.Library{workloads.FreeTypeLibrary(2)},
		HeapPages: 16,
	}
	return e7Pair(mrec, "freetype/exec-trace", img, func(p *libos.Process) (func(*core.Context), func() float64) {
		var recovered []rune
		return func(ctx *core.Context) {
			ft, err := workloads.BuildFreeType(p, 4)
			if err != nil {
				panic(err)
			}
			// Attacker knows page -> glyph from the public binary.
			pageToGlyph := make(map[uint64]rune)
			for g := rune(0x20); g < 0x20+workloads.FreeTypeGlyphs; g++ {
				va, _ := ft.GlyphPage(g)
				pageToGlyph[va.VPN()] = g
			}
			tracer := attack.NewPageFaultTracer(attack.ModeNoExec, ft.GlyphPages())
			p.Kernel.Adversary = tracer
			tracer.Arm(p.Kernel)

			if err := ft.RenderText(ctx, secret); err != nil {
				panic(err)
			}
			tracer.Disarm(p.Kernel)
			for _, ev := range tracer.Log.Events {
				if g, ok := pageToGlyph[ev.Addr.VPN()]; ok {
					recovered = append(recovered, g)
				}
			}
		}, func() float64 { return stringRecovery(string(recovered), secret) }
	})
}

func runE7JPEG(mrec *cellRecorder) E7Scenario {
	jcfg := workloads.JPEGConfig{
		BlocksW: 16, BlocksH: 12, BusyFraction: 0.35,
		TmpPages: 8, OutPagesPerBlockRow: 1, Seed: 0xE73,
	}
	img := libos.AppImage{
		Name:      "libjpeg",
		Libraries: []libos.Library{{Name: "libjpeg.so", Pages: 4}},
		HeapPages: jcfg.OutPagesPerBlockRow*jcfg.BlocksH + jcfg.TmpPages + 8,
	}
	return e7Pair(mrec, "libjpeg/idct-fault-count", img, func(p *libos.Process) (func(*core.Context), func() float64) {
		var recovered, truth []bool
		return func(ctx *core.Context) {
			j, err := workloads.BuildJPEG(p, jcfg)
			if err != nil {
				panic(err)
			}
			truth = j.Busy
			tmp := j.TmpPages()
			in := j.InPages()
			// Trap the stream page, the always-touched tmp page and one
			// deep-IDCT tmp page: the t1 -> t2 pattern identifies busy
			// blocks exactly (Xu et al.'s image reconstruction).
			targets := append([]mmu.VAddr{tmp[1], tmp[2]}, in...)
			tracer := attack.NewPageFaultTracer(attack.ModeUnmap, targets)
			p.Kernel.Adversary = tracer
			tracer.Arm(p.Kernel)
			j.Decode(ctx)
			tracer.Disarm(p.Kernel)

			t1, t2 := tmp[1].VPN(), tmp[2].VPN()
			events := tracer.Log.Events
			for i, ev := range events {
				if ev.Addr.VPN() != t1 {
					continue
				}
				busy := i+1 < len(events) && events[i+1].Addr.VPN() == t2
				recovered = append(recovered, busy)
			}
		}, func() float64 { return busyRecovery(recovered, truth) }
	})
}

func runE7ADBits(mrec *cellRecorder) E7Scenario {
	env := e7HunspellSetup()
	s := e7Pair(mrec, "hunspell/a-d-bit-monitor", env.image(), func(p *libos.Process) (func(*core.Context), func() float64) {
		p.Kernel.CPU.TimerInterval = 2 // aggressive scan cadence
		var recovered []string
		return func(ctx *core.Context) {
			h, matcher := env.build(p, ctx)
			monitor := attack.NewADBitMonitor(h.Dicts["en_US"].Pages(), true)
			p.Kernel.Adversary = monitor
			monitor.Arm(p.Kernel)
			// Request-boundary scan: the victim is blocked on the next
			// recv, so the attacker sweeps the remaining A bits.
			scan := func() { monitor.ScanNow(p.Kernel) }
			env.query(ctx, h, &monitor.Log, scan, matcher.MatchPageSet, &recovered)
			monitor.Disarm()
		}, func() float64 { return attack.RecoveryRate(recovered, env.secrets) }
	})
	if s.VanillaFaults != 0 {
		// The silent attack must induce no faults on vanilla SGX.
		panic(fmt.Sprintf("E7 A/D monitor induced %d faults on vanilla SGX", s.VanillaFaults))
	}
	return s
}

// allMasked checks the §5.1.2 guarantee on the faults an OS observed: every
// one carries only the enclave base. The kernel records only faults inside
// an enclave's range, so no other address can be legitimate.
func allMasked(faults *trace.Log, base mmu.VAddr) bool {
	for _, ev := range faults.Events {
		if ev.Addr != base {
			return false
		}
	}
	return true
}

func stringRecovery(got, want string) float64 {
	if len(want) == 0 {
		return 0
	}
	n := 0
	for i := 0; i < len(want) && i < len(got); i++ {
		if got[i] == want[i] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}

func busyRecovery(got, want []bool) float64 {
	if len(want) == 0 {
		return 0
	}
	n := 0
	for i := 0; i < len(want) && i < len(got); i++ {
		if got[i] == want[i] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}

// Table renders the result.
func (r E7Result) Table() *Table {
	t := &Table{
		Title:  "E7: controlled-channel attacks — vanilla SGX vs Autarky",
		Note:   "recovery = fraction of the secret the OS-level attacker reconstructed",
		Header: []string{"attack", "vanilla recovery", "autarky recovery", "autarky outcome", "fault info masked"},
	}
	for _, s := range r.Scenarios {
		outcome := "ran to completion"
		if s.AutarkyTerminated {
			outcome = "TERMINATED (" + s.AutarkyReason.String() + ")"
		}
		if s.AutarkyOutcome != "" {
			outcome = s.AutarkyOutcome
		}
		vanilla := fmt.Sprintf("%.0f%%", s.VanillaRecovery*100)
		if s.VanillaRecovery < 0 {
			vanilla = "n/a"
		}
		t.AddRow(s.Name,
			vanilla,
			fmt.Sprintf("%.0f%%", s.AutarkyRecovery*100),
			outcome,
			fmt.Sprintf("%v", s.MaskedOnly))
	}
	t.Metrics = r.Metrics
	return t
}
