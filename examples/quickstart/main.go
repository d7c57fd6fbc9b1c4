// Quickstart: create a simulated machine, load a self-paging enclave, run
// code in it under EPC pressure, and watch Autarky's runtime demand-page
// securely — then see what happens when the OS misbehaves.
package main

import (
	"errors"
	"fmt"
	"log"

	"autarky"
)

func main() {
	m := autarky.NewMachine()

	img := autarky.AppImage{
		Name:      "quickstart",
		Libraries: []autarky.Library{{Name: "libquick.so", Pages: 4}},
		HeapPages: 96,
	}
	// Self-paging enclave, rate-limited demand paging, EPC quota of 48
	// pages (the image is ~108, so the runtime must page).
	p, err := m.Spawn(img, autarky.Config{
		SelfPaging:     true,
		Policy:         autarky.PolicyRateLimit,
		RateLimitBurst: 100_000,
		QuotaPages:     48,
	})
	if err != nil {
		log.Fatal(err)
	}
	meas := p.Enclave().Measurement()
	fmt.Printf("enclave loaded: measurement %x...\n", meas[:8])

	err = p.Run(func(ctx *autarky.Context) {
		// Touch far more memory than the quota allows; every page keeps
		// its contents across the paging the runtime performs.
		for pass := 0; pass < 2; pass++ {
			for i, va := range p.Heap.PageVAs() {
				ctx.Write(va, []byte{byte(i)})
			}
		}
		for i, va := range p.Heap.PageVAs() {
			buf := make([]byte, 1)
			ctx.Read(va, buf)
			if buf[0] != byte(i) {
				log.Fatalf("page %d corrupted", i)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	st := p.Runtime.Metrics()
	faults, _ := st.Named("runtime.self_faults")
	fetched, _ := st.Named("runtime.pages_fetched")
	evicted, _ := st.Named("runtime.pages_evicted")
	fmt.Printf("self-paging faults: %d, pages fetched: %d, evicted: %d\n", faults, fetched, evicted)
	fmt.Printf("cycles: %d — and the OS only ever saw masked faults at %s\n",
		m.Cycles(), p.Enclave().Base)

	// Now the OS turns malicious: it unmaps a page behind the enclave's
	// back. On vanilla SGX this is the controlled channel; under Autarky
	// the next access is detected and the enclave terminates.
	target := p.Heap.Page(7)
	err = p.Run(func(ctx *autarky.Context) {
		ctx.Load(target) // make it resident & tracked
		m.Kernel.UnmapPage(target)
		ctx.Load(target) // never completes
	})
	var term *autarky.TerminationError
	if errors.As(err, &term) {
		fmt.Printf("OS-induced fault detected: %v\n", term)
	} else {
		log.Fatalf("expected attack detection, got %v", err)
	}
}
