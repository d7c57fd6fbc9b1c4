package experiments

import (
	"errors"
	"fmt"
	"strings"

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
	orderings := e7Orderings()
	out, cm := runCells("E7", len(e7Attacks)+len(orderings), func(i int, rec *cellRecorder) E7Scenario {
		if i < len(e7Attacks) {
			return e7Pair(rec, e7Attacks[i])
		}
		return runE7Ordering(rec, orderings[i-len(e7Attacks)])
	})
	return E7Result{Scenarios: out, Metrics: cm}
}

// e7Attack is one of E7's attack rows: a victim and the adversary mounted
// on it, named as cmd/aytrace's -victim and -adversary name them.
type e7Attack struct {
	name      string // the table's row
	victim    string
	adversary string
	// setup returns the victim's image and the mount that attacks it.
	setup func() (libos.AppImage, e7Mount)
}

// e7Attacks are E7's attack rows, in table order.
var e7Attacks = []e7Attack{
	{"hunspell/page-fault-trace", "hunspell", "fault", e7HunspellTrace(attack.ModeUnmap)},
	// The remaining §2.2 induction variant: the OS maps a target at the
	// wrong frame and the EPCM check faults (the Foreshadow precursor).
	{"hunspell/wrong-mapping", "hunspell", "wrongmap", e7HunspellTrace(attack.ModeWrongMap)},
	{"freetype/exec-trace", "freetype", "noexec", e7FreeType},
	{"libjpeg/idct-fault-count", "jpeg", "fault", e7JPEG},
	{"hunspell/a-d-bit-monitor", "hunspell", "adbits", e7HunspellADBits},
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
	seen       *trace.Log // the OS's record of the run
	base       mmu.VAddr  // the enclave base
	faults     int        // enclave faults the OS observed
	masked     bool       // every observed fault carried only the enclave base
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
	r := e7Run{clock: p.Kernel.Clock, seen: seen, base: p.Enclave().Base}
	var term *sgx.TerminationError
	if errors.As(runErr, &term) {
		r.terminated, r.reason = true, term.Reason
	} else if runErr != nil {
		panic(fmt.Sprintf("E7 victim %s (%s): %v", img.Name, rc.label(), runErr))
	}
	faults := seen.Only(trace.KindFault)
	r.faults, r.masked = faults.Len(), allMasked(faults, r.base)
	return r
}

// e7Mount mounts one attack on a loaded victim, as runE7Victim's mount
// does. It also returns the log the adversary captures into, and recovery,
// which reports after the run the fraction of the secret the captures
// reconstruct.
type e7Mount func(p *libos.Process) (body func(*core.Context), captured *trace.Log, recovery func() float64)

// e7AttackRun is one attack row run on one model.
type e7AttackRun struct {
	e7Run
	captured *trace.Log
	recovery float64
}

// runE7Attack runs attack a on a pin-all victim, vanilla or Autarky.
func runE7Attack(a e7Attack, selfPaging bool) e7AttackRun {
	img, mount := a.setup()
	var captured *trace.Log
	var recovery func() float64
	rc := RunConfig{Config: libos.Config{SelfPaging: selfPaging, Policy: libos.PolicyPinAll}}
	r := runE7Victim(img, rc, func(p *libos.Process, _ *trace.Log) func(*core.Context) {
		var body func(*core.Context)
		body, captured, recovery = mount(p)
		return body
	})
	return e7AttackRun{e7Run: r, captured: captured, recovery: recovery()}
}

// e7Pair runs attack a on a vanilla victim and then on an Autarky victim,
// and records both machines under e7Sub.
func e7Pair(mrec *cellRecorder, a e7Attack) E7Scenario {
	s := E7Scenario{Name: a.name}
	for _, selfPaging := range []bool{false, true} {
		r := runE7Attack(a, selfPaging)
		mrec.recordClock(e7Sub(selfPaging), r.clock)
		if selfPaging {
			s.AutarkyRecovery = r.recovery
			s.AutarkyTerminated, s.AutarkyReason = r.terminated, r.reason
			s.AutarkyFaults, s.MaskedOnly = r.faults, r.masked
		} else {
			s.VanillaRecovery = r.recovery
			s.VanillaDetected, s.VanillaFaults = r.terminated, r.faults
		}
	}
	if a.adversary == "adbits" && s.VanillaFaults != 0 {
		// The silent attack must induce no faults on vanilla SGX.
		panic(fmt.Sprintf("E7 A/D monitor induced %d faults on vanilla SGX", s.VanillaFaults))
	}
	return s
}

// E7Trace is one E7 attack row run on one model: what the OS observed and
// what the adversary captured.
type E7Trace struct {
	// Observed is the OS's record of the run: every enclave fault as
	// delivered, and every page-in.
	Observed *trace.Log
	// Captured is the adversary's own record.
	Captured *trace.Log
	// Base is the enclave base, the one address a masked fault carries.
	Base mmu.VAddr
	// Terminated reports that the enclave was terminated, for Reason.
	Terminated bool
	Reason     sgx.TerminationReason
}

// TraceE7 runs E7's row that mounts adversary on victim, on a vanilla
// victim or, with selfPaging, an Autarky one. When E7 runs no such pair the
// error names the pairs it runs.
func TraceE7(victim, adversary string, selfPaging bool) (E7Trace, error) {
	pairs := make([]string, len(e7Attacks))
	for i, a := range e7Attacks {
		if a.victim == victim && a.adversary == adversary {
			r := runE7Attack(a, selfPaging)
			return E7Trace{Observed: r.seen, Captured: r.captured, Base: r.base, Terminated: r.terminated, Reason: r.reason}, nil
		}
		pairs[i] = a.victim + "/" + a.adversary
	}
	return E7Trace{}, fmt.Errorf("E7 mounts no %q adversary on a %q victim; its victim/adversary pairs are %s",
		adversary, victim, strings.Join(pairs, ", "))
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

// e7HunspellTrace traces the dictionary's data pages with a tracer in mode
// and matches each request's trace to a word.
func e7HunspellTrace(mode attack.Mode) func() (libos.AppImage, e7Mount) {
	return func() (libos.AppImage, e7Mount) {
		env := e7HunspellSetup()
		return env.image(), func(p *libos.Process) (func(*core.Context), *trace.Log, func() float64) {
			tracer := attack.NewPageFaultTracer(mode, nil)
			var recovered []string
			return func(ctx *core.Context) {
				h, matcher := env.build(p, ctx)
				if mode == attack.ModeWrongMap {
					// The decoy frame: the last heap page, never part of
					// a lookup.
					tracer.Decoy = p.Heap.Page(p.Heap.Pages - 1)
					ctx.Store(tracer.Decoy)
				}
				tracer.Targets = h.Dicts["en_US"].Pages()
				tracer.Arm(p.Kernel)
				env.query(ctx, h, &tracer.Log, nil, matcher.MatchExact, &recovered)
				tracer.Disarm(p.Kernel)
			}, &tracer.Log, func() float64 { return attack.RecoveryRate(recovered, env.secrets) }
		}
	}
}

func e7HunspellADBits() (libos.AppImage, e7Mount) {
	env := e7HunspellSetup()
	return env.image(), func(p *libos.Process) (func(*core.Context), *trace.Log, func() float64) {
		p.Kernel.CPU.TimerInterval = 2 // aggressive scan cadence
		monitor := attack.NewADBitMonitor(nil, true)
		var recovered []string
		return func(ctx *core.Context) {
			h, matcher := env.build(p, ctx)
			monitor.Targets = h.Dicts["en_US"].Pages()
			monitor.Arm(p.Kernel)
			// Request-boundary scan: the victim is blocked on the next
			// recv, so the attacker sweeps the remaining A bits.
			scan := func() { monitor.ScanNow(p.Kernel) }
			env.query(ctx, h, &monitor.Log, scan, matcher.MatchPageSet, &recovered)
			monitor.Disarm(p.Kernel)
		}, &monitor.Log, func() float64 { return attack.RecoveryRate(recovered, env.secrets) }
	}
}

func e7FreeType() (libos.AppImage, e7Mount) {
	const secret = "SGX leaks control flow!"
	img := libos.AppImage{
		Name:      "freetype",
		Libraries: []libos.Library{workloads.FreeTypeLibrary(2)},
		HeapPages: 16,
	}
	return img, func(p *libos.Process) (func(*core.Context), *trace.Log, func() float64) {
		tracer := attack.NewPageFaultTracer(attack.ModeNoExec, nil)
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
			tracer.Targets = ft.GlyphPages()
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
		}, &tracer.Log, func() float64 { return attack.PositionalRecovery(recovered, []rune(secret)) }
	}
}

func e7JPEG() (libos.AppImage, e7Mount) {
	jcfg := workloads.JPEGConfig{
		BlocksW: 16, BlocksH: 12, BusyFraction: 0.35,
		TmpPages: 8, OutPagesPerBlockRow: 1, Seed: 0xE73,
	}
	img := libos.AppImage{
		Name:      "libjpeg",
		Libraries: []libos.Library{{Name: "libjpeg.so", Pages: 4}},
		HeapPages: jcfg.OutPagesPerBlockRow*jcfg.BlocksH + jcfg.TmpPages + 8,
	}
	return img, func(p *libos.Process) (func(*core.Context), *trace.Log, func() float64) {
		tracer := attack.NewPageFaultTracer(attack.ModeUnmap, nil)
		var recovered, truth []bool
		return func(ctx *core.Context) {
			j, err := workloads.BuildJPEG(p, jcfg)
			if err != nil {
				panic(err)
			}
			truth = j.Busy
			tmp := j.TmpPages()
			// Trap the stream page, the always-touched tmp page and one
			// deep-IDCT tmp page: the t1 -> t2 pattern identifies busy
			// blocks exactly (Xu et al.'s image reconstruction).
			tracer.Targets = append([]mmu.VAddr{tmp[1], tmp[2]}, j.InPages()...)
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
		}, &tracer.Log, func() float64 { return attack.PositionalRecovery(recovered, truth) }
	}
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
