package experiments

import (
	"errors"
	"fmt"

	"autarky/internal/attack"
	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
	"autarky/internal/trace"
	"autarky/internal/workloads"
)

// E7 — security evaluation: the published controlled-channel attacks run
// against the vanilla SGX model (where they recover secrets) and against
// Autarky (where they are detected and the enclave terminates before
// leaking). Four scenarios:
//
//   - Hunspell word recovery via page-fault injection (Xu et al.)
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
	// Autarky results.
	AutarkyRecovery   float64
	AutarkyTerminated bool
	AutarkyReason     sgx.TerminationReason
	// AutarkyOutcome, when set, overrides the rendered outcome column
	// (the ordering attacks report refusal phases, not just termination).
	AutarkyOutcome string
	// MaskedOnly reports that every fault the OS observed under Autarky
	// carried only the enclave base address (the §5.1.2 guarantee).
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

// runE7WrongMap is the remaining §2.2 induction variant — the OS maps a
// target VA at the wrong frame; the EPCM check faults (the Foreshadow
// precursor). Same victim and recovery as the unmap tracer.
func runE7WrongMap(mrec *cellRecorder) E7Scenario {
	env := e7HunspellSetup()
	s := E7Scenario{Name: "hunspell/wrong-mapping"}

	run := func(selfPaging bool) (recovered []string, terminated bool, reason sgx.TerminationReason, maskedOnly bool) {
		img := libos.AppImage{
			Name:      "hunspell",
			Libraries: []libos.Library{{Name: "libhunspell.so", Pages: 4}},
			HeapPages: env.cfg.PagesPerDict + 16,
		}
		rc := RunConfig{SelfPaging: selfPaging, Policy: libos.PolicyPinAll, HeapPages: img.HeapPages}
		p, _, err := BuildProcess(img, rc)
		if err != nil {
			panic(err)
		}
		runErr := p.Run(func(ctx *core.Context) {
			h, err := workloads.BuildHunspell(p, ctx, env.cfg)
			if err != nil {
				panic(err)
			}
			d := h.Dicts["en_US"]
			matcher := attack.NewSignatureMatcher()
			for _, w := range d.Words {
				matcher.Learn(w, d.AccessTrace(w))
			}
			// The decoy frame: the last heap page, never part of a lookup.
			decoy := p.Heap.Page(p.Heap.Pages - 1)
			ctx.Store(decoy)
			w := attack.NewWrongMapper(p.Kernel, d.Pages(), decoy)
			p.Kernel.Adversary = w
			w.Arm(p.Kernel)
			for _, secret := range env.secrets {
				before := w.Log.Len()
				if _, err := h.Check(ctx, "en_US", secret); err != nil {
					panic(err)
				}
				seg := &trace.Log{Events: w.Log.Events[before:]}
				if m := matcher.MatchExact(seg); len(m) == 1 {
					recovered = append(recovered, m[0])
				}
			}
			w.Disarm(p.Kernel)
		})
		mrec.recordClock(e7Sub(selfPaging), p.Kernel.Clock)
		var term *sgx.TerminationError
		if errors.As(runErr, &term) {
			terminated = true
			reason = term.Reason
		} else if runErr != nil {
			panic(runErr)
		}
		return recovered, terminated, reason, allMasked(&p.Kernel.FaultLog, p.Enclave())
	}

	rec, term, _, _ := run(false)
	s.VanillaRecovery = attack.RecoveryRate(rec, env.secrets)
	s.VanillaDetected = term

	rec, term2, reason, masked := run(true)
	s.AutarkyRecovery = attack.RecoveryRate(rec, env.secrets)
	s.AutarkyTerminated = term2
	s.AutarkyReason = reason
	s.MaskedOnly = masked
	return s
}

// hunspellVictim builds the spell checker and serves the secret queries,
// calling hooks so the "concurrent" adversary can act at the right moments.
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

func runE7Hunspell(mrec *cellRecorder) E7Scenario {
	env := e7HunspellSetup()
	s := E7Scenario{Name: "hunspell/page-fault-trace"}

	run := func(selfPaging bool) (recovered []string, terminated bool, reason sgx.TerminationReason, maskedOnly bool) {
		img := libos.AppImage{
			Name:      "hunspell",
			Libraries: []libos.Library{{Name: "libhunspell.so", Pages: 4}},
			HeapPages: env.cfg.PagesPerDict + 16,
		}
		rc := RunConfig{SelfPaging: selfPaging, Policy: libos.PolicyPinAll, HeapPages: img.HeapPages}
		p, _, err := BuildProcess(img, rc)
		if err != nil {
			panic(err)
		}
		var matcher *attack.SignatureMatcher
		runErr := p.Run(func(ctx *core.Context) {
			h, err := workloads.BuildHunspell(p, ctx, env.cfg)
			if err != nil {
				panic(err)
			}
			d := h.Dicts["en_US"]

			// Attacker's offline phase: precompute per-word signatures from
			// the public dictionary and binary layout.
			matcher = attack.NewSignatureMatcher()
			for _, w := range d.Words {
				matcher.Learn(w, d.AccessTrace(w))
			}

			// Attacker arms the tracer on the dictionary's data pages.
			tracer := attack.NewPageFaultTracer(attack.ModeUnmap, d.Pages())
			p.Kernel.Adversary = tracer
			tracer.Arm(p.Kernel)

			// Victim serves the secret queries; the attacker segments the
			// trace per request (it sees request arrival on the socket).
			for _, w := range env.secrets {
				before := tracer.Log.Len()
				if _, err := h.Check(ctx, "en_US", w); err != nil {
					panic(err)
				}
				seg := &trace.Log{Events: tracer.Log.Events[before:]}
				if m := matcher.MatchExact(seg); len(m) == 1 {
					recovered = append(recovered, m[0])
				}
			}
			tracer.Disarm(p.Kernel)
		})
		mrec.recordClock(e7Sub(selfPaging), p.Kernel.Clock)
		var term *sgx.TerminationError
		if errors.As(runErr, &term) {
			terminated = true
			reason = term.Reason
		} else if runErr != nil {
			panic(runErr)
		}
		maskedOnly = allMasked(&p.Kernel.FaultLog, p.Enclave())
		return recovered, terminated, reason, maskedOnly
	}

	rec, term, _, _ := run(false)
	s.VanillaRecovery = attack.RecoveryRate(rec, env.secrets)
	s.VanillaDetected = term

	rec, term, reason, masked := run(true)
	s.AutarkyRecovery = attack.RecoveryRate(rec, env.secrets)
	s.AutarkyTerminated = term
	s.AutarkyReason = reason
	s.MaskedOnly = masked
	return s
}

func runE7FreeType(mrec *cellRecorder) E7Scenario {
	s := E7Scenario{Name: "freetype/exec-trace"}
	secret := "SGX leaks control flow!"

	run := func(selfPaging bool) (string, bool, sgx.TerminationReason, bool) {
		img := libos.AppImage{
			Name:      "freetype",
			Libraries: []libos.Library{workloads.FreeTypeLibrary(2)},
			HeapPages: 16,
		}
		rc := RunConfig{SelfPaging: selfPaging, Policy: libos.PolicyPinAll, HeapPages: img.HeapPages}
		p, _, err := BuildProcess(img, rc)
		if err != nil {
			panic(err)
		}
		var recovered []rune
		runErr := p.Run(func(ctx *core.Context) {
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
		})
		mrec.recordClock(e7Sub(selfPaging), p.Kernel.Clock)
		var term *sgx.TerminationError
		if errors.As(runErr, &term) {
			return string(recovered), true, term.Reason, allMasked(&p.Kernel.FaultLog, p.Enclave())
		}
		if runErr != nil {
			panic(runErr)
		}
		return string(recovered), false, sgx.TerminateNone, allMasked(&p.Kernel.FaultLog, p.Enclave())
	}

	text, term, _, _ := run(false)
	s.VanillaRecovery = stringRecovery(text, secret)
	s.VanillaDetected = term

	text, term2, reason, masked := run(true)
	s.AutarkyRecovery = stringRecovery(text, secret)
	s.AutarkyTerminated = term2
	s.AutarkyReason = reason
	s.MaskedOnly = masked
	return s
}

func runE7JPEG(mrec *cellRecorder) E7Scenario {
	s := E7Scenario{Name: "libjpeg/idct-fault-count"}
	jcfg := workloads.JPEGConfig{
		BlocksW: 16, BlocksH: 12, BusyFraction: 0.35,
		TmpPages: 8, OutPagesPerBlockRow: 1, Seed: 0xE73,
	}

	run := func(selfPaging bool) (recovered []bool, truth []bool, term bool, reason sgx.TerminationReason) {
		heap := jcfg.OutPagesPerBlockRow*jcfg.BlocksH + jcfg.TmpPages + 8
		img := libos.AppImage{
			Name:      "libjpeg",
			Libraries: []libos.Library{{Name: "libjpeg.so", Pages: 4}},
			HeapPages: heap,
		}
		rc := RunConfig{SelfPaging: selfPaging, Policy: libos.PolicyPinAll, HeapPages: heap}
		p, _, err := BuildProcess(img, rc)
		if err != nil {
			panic(err)
		}
		runErr := p.Run(func(ctx *core.Context) {
			j, err := workloads.BuildJPEG(p, p.Kernel.Clock, jcfg)
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
		})
		mrec.recordClock(e7Sub(selfPaging), p.Kernel.Clock)
		var te *sgx.TerminationError
		if errors.As(runErr, &te) {
			return recovered, truth, true, te.Reason
		}
		if runErr != nil {
			panic(runErr)
		}
		return recovered, truth, false, sgx.TerminateNone
	}

	rec, truth, term, _ := run(false)
	s.VanillaRecovery = busyRecovery(rec, truth)
	s.VanillaDetected = term

	rec, truth, term2, reason := run(true)
	s.AutarkyRecovery = busyRecovery(rec, truth)
	s.AutarkyTerminated = term2
	s.AutarkyReason = reason
	s.MaskedOnly = true
	return s
}

func runE7ADBits(mrec *cellRecorder) E7Scenario {
	env := e7HunspellSetup()
	s := E7Scenario{Name: "hunspell/a-d-bit-monitor"}

	run := func(selfPaging bool) (recovered []string, faultsSeen uint64, term bool, reason sgx.TerminationReason) {
		img := libos.AppImage{
			Name:      "hunspell",
			Libraries: []libos.Library{{Name: "libhunspell.so", Pages: 4}},
			HeapPages: env.cfg.PagesPerDict + 16,
		}
		rc := RunConfig{SelfPaging: selfPaging, Policy: libos.PolicyPinAll, HeapPages: img.HeapPages}
		p, _, err := BuildProcess(img, rc)
		if err != nil {
			panic(err)
		}
		p.Kernel.CPU.TimerInterval = 2 // aggressive scan cadence
		runErr := p.Run(func(ctx *core.Context) {
			h, err := workloads.BuildHunspell(p, ctx, env.cfg)
			if err != nil {
				panic(err)
			}
			d := h.Dicts["en_US"]
			matcher := attack.NewSignatureMatcher()
			for _, w := range d.Words {
				matcher.Learn(w, d.AccessTrace(w))
			}
			monitor := attack.NewADBitMonitor(d.Pages(), true)
			p.Kernel.Adversary = monitor
			monitor.Arm(p.Kernel)
			for _, w := range env.secrets {
				before := monitor.Log.Len()
				if _, err := h.Check(ctx, "en_US", w); err != nil {
					panic(err)
				}
				// Request-boundary scan: the victim is blocked on the next
				// recv, so the attacker sweeps the remaining A bits.
				monitor.ScanNow(p.Kernel)
				seg := &trace.Log{Events: monitor.Log.Events[before:]}
				if m := matcher.MatchPageSet(seg); len(m) == 1 {
					recovered = append(recovered, m[0])
				}
			}
			monitor.Disarm()
		})
		mrec.recordClock(e7Sub(selfPaging), p.Kernel.Clock)
		faultsSeen = metrics.Of(p.Kernel.Clock).Count(metrics.CntOSFaults)
		var te *sgx.TerminationError
		if errors.As(runErr, &te) {
			return recovered, faultsSeen, true, te.Reason
		}
		if runErr != nil {
			panic(runErr)
		}
		return recovered, faultsSeen, false, sgx.TerminateNone
	}

	rec, vanFaults, term, _ := run(false)
	s.VanillaRecovery = attack.RecoveryRate(rec, env.secrets)
	s.VanillaDetected = term
	if vanFaults != 0 {
		// The silent attack must induce no faults on vanilla SGX.
		panic(fmt.Sprintf("E7 A/D monitor induced %d faults on vanilla SGX", vanFaults))
	}

	rec, _, term2, reason := run(true)
	s.AutarkyRecovery = attack.RecoveryRate(rec, env.secrets)
	s.AutarkyTerminated = term2
	s.AutarkyReason = reason
	s.MaskedOnly = true
	return s
}

// allMasked checks the §5.1.2 guarantee on everything the OS observed.
func allMasked(log *trace.Log, e *sgx.Enclave) bool {
	for _, ev := range log.Events {
		if e.Contains(ev.Addr) && ev.Addr != e.Base {
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
