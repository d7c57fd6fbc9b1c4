// Command aytrace runs a victim workload under a chosen adversary and
// prints the page-access trace the OS observes — the controlled channel
// made visible. Compare the two models directly:
//
//	aytrace -victim hunspell -adversary fault            # vanilla SGX
//	aytrace -victim hunspell -adversary fault -autarky   # masked + detected
//	aytrace -victim freetype -adversary noexec
//	aytrace -victim jpeg     -adversary adbits -n 40
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"autarky"
	"autarky/internal/attack"
	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/mmu"
	"autarky/internal/sim"
	"autarky/internal/trace"
	"autarky/internal/workloads"
)

func main() {
	victim := flag.String("victim", "hunspell", "victim workload: hunspell, freetype, jpeg")
	adversary := flag.String("adversary", "fault", "adversary: fault, noexec, wrongmap, adbits, none")
	selfPaging := flag.Bool("autarky", false, "run the victim as a self-paging (Autarky) enclave")
	n := flag.Int("n", 20, "number of requests/characters/blocks to process")
	maxEvents := flag.Int("max-events", 60, "trace events to print")
	flag.Parse()

	m := autarky.NewMachine()
	img, setup := victimSetup(*victim, *n)
	cfg := autarky.Config{SelfPaging: *selfPaging, Policy: autarky.PolicyPinAll}
	p, err := m.Spawn(img, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	seen := &trace.Log{}
	m.Kernel.Observed = seen
	var log *trace.Log
	runErr := p.Run(func(ctx *core.Context) {
		targets, workload := setup(p.Process, ctx)
		var disarm func()
		log, disarm = arm(m, *adversary, targets)
		workload(ctx)
		disarm()
	})

	mode := "vanilla SGX"
	if *selfPaging {
		mode = "Autarky"
	}
	fmt.Printf("victim=%s adversary=%s model=%s\n", *victim, *adversary, mode)
	var term *autarky.TerminationError
	switch {
	case errors.As(runErr, &term):
		fmt.Printf("outcome: enclave TERMINATED (%s)\n", term.Reason)
	case runErr != nil:
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	default:
		fmt.Println("outcome: ran to completion")
	}

	faults := seen.Only(trace.KindFault)
	fmt.Printf("\nOS fault log (%d events, every enclave fault the kernel saw):\n", faults.Len())
	printLog(faults, p.Enclave().Base, *maxEvents)
	if log != nil && log.Len() > 0 {
		fmt.Printf("\nadversary's captured trace (%d events):\n", log.Len())
		printLog(log, p.Enclave().Base, *maxEvents)
	}
}

func printLog(l *trace.Log, enclaveBase mmu.VAddr, max int) {
	for i, ev := range l.Events {
		if i >= max {
			fmt.Printf("  ... %d more\n", l.Len()-max)
			return
		}
		note := ""
		if ev.Addr == enclaveBase {
			note = "   <- masked to enclave base"
		}
		fmt.Printf("  %3d  cycle=%-10d %-5s %-6s %s%s\n", i, ev.Cycle, ev.Kind, ev.Type, ev.Addr, note)
	}
	if l.Len() == 0 {
		fmt.Println("  (empty)")
	}
}

// victimSetup returns the image plus a function that, inside the enclave,
// builds the victim and returns (attack targets, workload body).
func victimSetup(name string, n int) (autarky.AppImage, func(*libos.Process, *core.Context) ([]mmu.VAddr, func(*core.Context))) {
	switch name {
	case "hunspell":
		cfg := workloads.HunspellConfig{Langs: []string{"en"}, WordsPerDict: 300, BucketsPerDict: 64, PagesPerDict: 64}
		img := autarky.AppImage{
			Name:      "hunspell",
			Libraries: []autarky.Library{{Name: "libhunspell.so", Pages: 4}},
			HeapPages: cfg.PagesPerDict + 16,
		}
		return img, func(p *libos.Process, ctx *core.Context) ([]mmu.VAddr, func(*core.Context)) {
			h, err := workloads.BuildHunspell(p, ctx, cfg)
			if err != nil {
				panic(err)
			}
			d := h.Dicts["en"]
			rng := sim.NewRand(1)
			return d.Pages(), func(ctx *core.Context) {
				for i := 0; i < n; i++ {
					_, _ = h.Check(ctx, "en", workloads.Word("en", rng.Intn(cfg.WordsPerDict)))
				}
			}
		}
	case "freetype":
		img := autarky.AppImage{
			Name:      "freetype",
			Libraries: []autarky.Library{workloads.FreeTypeLibrary(2)},
			HeapPages: 16,
		}
		return img, func(p *libos.Process, ctx *core.Context) ([]mmu.VAddr, func(*core.Context)) {
			ft, err := workloads.BuildFreeType(p, 2)
			if err != nil {
				panic(err)
			}
			text := "the quick brown fox jumps over the lazy dog"
			if n < len(text) {
				text = text[:n]
			}
			return ft.GlyphPages(), func(ctx *core.Context) {
				_ = ft.RenderText(ctx, text)
			}
		}
	case "jpeg":
		jcfg := workloads.JPEGConfig{BlocksW: 8, BlocksH: (n + 7) / 8, BusyFraction: 0.4, TmpPages: 6, OutPagesPerBlockRow: 1, Seed: 1}
		img := autarky.AppImage{
			Name:      "jpeg",
			Libraries: []autarky.Library{{Name: "libjpeg.so", Pages: 4}},
			HeapPages: jcfg.OutPagesPerBlockRow*jcfg.BlocksH + jcfg.TmpPages + 8,
		}
		return img, func(p *libos.Process, ctx *core.Context) ([]mmu.VAddr, func(*core.Context)) {
			j, err := workloads.BuildJPEG(p, jcfg)
			if err != nil {
				panic(err)
			}
			targets := append([]mmu.VAddr{j.TmpPages()[1], j.TmpPages()[2]}, j.InPages()...)
			return targets, func(ctx *core.Context) { j.Decode(ctx) }
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown victim %q\n", name)
		os.Exit(2)
		return autarky.AppImage{}, nil
	}
}

// arm installs the adversary and returns its log plus a disarm function.
func arm(m *autarky.Machine, kind string, targets []mmu.VAddr) (*trace.Log, func()) {
	switch kind {
	case "fault":
		a := attack.NewPageFaultTracer(attack.ModeUnmap, targets)
		m.Kernel.Adversary = a
		a.Arm(m.Kernel)
		return &a.Log, func() { a.Disarm(m.Kernel) }
	case "noexec":
		a := attack.NewPageFaultTracer(attack.ModeNoExec, targets)
		m.Kernel.Adversary = a
		a.Arm(m.Kernel)
		return &a.Log, func() { a.Disarm(m.Kernel) }
	case "wrongmap":
		if len(targets) < 2 {
			fmt.Fprintln(os.Stderr, "wrongmap needs >= 2 target pages")
			os.Exit(2)
		}
		a := attack.NewWrongMapper(m.Kernel, targets[:len(targets)-1], targets[len(targets)-1])
		m.Kernel.Adversary = a
		a.Arm(m.Kernel)
		return &a.Log, func() { a.Disarm(m.Kernel) }
	case "adbits":
		a := attack.NewADBitMonitor(targets, true)
		m.Kernel.CPU.TimerInterval = 3
		m.Kernel.Adversary = a
		a.Arm(m.Kernel)
		return &a.Log, func() { a.ScanNow(m.Kernel); a.Disarm() }
	case "none":
		return nil, func() {}
	default:
		fmt.Fprintf(os.Stderr, "unknown adversary %q\n", kind)
		os.Exit(2)
		return nil, nil
	}
}
