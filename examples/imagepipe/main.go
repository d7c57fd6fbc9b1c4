// Imagepipe: the paper's libjpeg pipeline (§7.3). The decode working
// buffers have a secret-dependent access pattern (the IDCT skips all-zero
// blocks), so they are pinned as enclave-managed; the decoded output is
// accessed data-independently by later pipeline stages, so it is released
// to ordinary OS paging — mixing both management modes in one enclave.
package main

import (
	"fmt"
	"log"

	"autarky"
	"autarky/internal/core"
	"autarky/internal/mmu"
	"autarky/internal/workloads"
)

func main() {
	m := autarky.NewMachine()

	jcfg := workloads.JPEGConfig{
		BlocksW:             64,
		BlocksH:             64,
		BusyFraction:        0.4,
		TmpPages:            8,
		OutPagesPerBlockRow: 4,
		Seed:                7,
	}
	outPages := jcfg.OutPagesPerBlockRow * jcfg.BlocksH
	heap := outPages + jcfg.TmpPages + 32

	p, err := m.Spawn(autarky.AppImage{
		Name:      "imagepipe",
		Libraries: []autarky.Library{{Name: "libjpeg.so", Pages: 4}},
		HeapPages: heap,
	}, autarky.Config{
		SelfPaging:           true,
		Policy:               autarky.PolicyRateLimit,
		RateLimitPerProgress: 64,
		RateLimitBurst:       1024,
		QuotaPages:           12 + jcfg.TmpPages + 48 + outPages/4,
	})
	if err != nil {
		log.Fatal(err)
	}

	err = p.Run(func(ctx *core.Context) {
		j, err := workloads.BuildJPEG(p.Process, jcfg)
		if err != nil {
			log.Fatal(err)
		}
		// The paper's two-line enlightenment: pin the sensitive working
		// buffers; hand the insensitive output to the OS.
		if err := ctx.ManagePages(j.TmpPages(), mmu.PermRW, true); err != nil {
			log.Fatal(err)
		}
		if err := ctx.ReleasePages(j.OutPages()); err != nil {
			log.Fatal(err)
		}
		if err := p.Runtime.EnsurePinnedResident(); err != nil {
			log.Fatal(err)
		}

		start := m.Cycles()
		j.Decode(ctx)
		j.Invert(ctx)
		j.Encode(ctx)
		cycles := m.Cycles() - start

		mb := float64(outPages*4096) / 1e6
		fmt.Printf("decoded+filtered+encoded a %.1f MB image in %d cycles\n", mb, cycles)
	})
	if err != nil {
		log.Fatal(err)
	}

	st := p.Runtime.Metrics()
	forwarded, _ := st.Named("runtime.forwarded_faults")
	faults, _ := st.Named("runtime.self_faults")
	attacks, _ := st.Named("runtime.attacks_detected")
	fmt.Printf("forwarded OS-paging faults (insensitive output buffer): %d\n", forwarded)
	fmt.Printf("self-paging faults on other enclave-managed pages: %d (the pinned IDCT buffers never fault)\n", faults)
	fmt.Printf("attacks detected: %d\n", attacks)
}
