package autarky_test

import (
	"errors"
	"fmt"

	"autarky"
)

// Example demonstrates the core loop: a self-paging enclave under EPC
// pressure pages securely, and an OS-induced fault is detected.
func Example() {
	m := autarky.NewMachine()
	p, err := m.Spawn(autarky.AppImage{
		Name:      "demo",
		Libraries: []autarky.Library{{Name: "libdemo.so", Pages: 2}},
		HeapPages: 48,
	}, autarky.Config{
		SelfPaging:     true,
		Policy:         autarky.PolicyRateLimit,
		RateLimitBurst: 10_000,
		QuotaPages:     32,
	})
	if err != nil {
		panic(err)
	}
	err = p.Run(func(ctx *autarky.Context) {
		for pass := 0; pass < 2; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
	fmt.Println("benign run error:", err)
	st := p.Runtime.Metrics()
	attacks, _ := st.Named("runtime.attacks_detected")
	faults, _ := st.Named("runtime.self_faults")
	fmt.Println("attacks detected:", attacks)
	fmt.Println("paged securely:", faults > 0)

	// The OS turns malicious.
	target := p.Heap.Page(0)
	err = p.Run(func(ctx *autarky.Context) {
		ctx.Load(target)
		m.Kernel.UnmapPage(target)
		ctx.Load(target)
	})
	var term *autarky.TerminationError
	fmt.Println("attack detected:", errors.As(err, &term))
	// Output:
	// benign run error: <nil>
	// attacks detected: 0
	// paged securely: true
	// attack detected: true
}

// ExampleMachine_Spawn shows that the self-paging attribute is part of
// the attested identity: a relying party can tell protected enclaves apart.
func ExampleMachine_Spawn() {
	img := autarky.AppImage{
		Name:      "attested",
		Libraries: []autarky.Library{{Name: "lib.so", Pages: 2}},
		HeapPages: 8,
	}
	load := func(selfPaging bool) [32]byte {
		p, err := autarky.NewMachine(autarky.WithEPCFrames(256)).
			Spawn(img, autarky.Config{SelfPaging: selfPaging, Policy: autarky.PolicyPinAll})
		if err != nil {
			panic(err)
		}
		return p.Enclave().Measurement()
	}
	protected := load(true)
	legacy := load(false)
	fmt.Println("reproducible:", protected == load(true))
	fmt.Println("distinguishable at attestation:", protected != legacy)
	// Output:
	// reproducible: true
	// distinguishable at attestation: true
}

// ExampleNewHypervisor shows §5.4 static EPC partitioning.
func ExampleNewHypervisor() {
	hv := autarky.NewHypervisor(512)
	a, _ := hv.CreateGuest(256)
	b, _ := hv.CreateGuest(128)
	baseA, nA := autarky.GuestEPCRange(a)
	baseB, _ := autarky.GuestEPCRange(b)
	fmt.Println("disjoint partitions:", uint64(baseA)+uint64(nA) <= uint64(baseB))
	fmt.Println("frames left:", hv.Remaining())
	// Output:
	// disjoint partitions: true
	// frames left: 128
}
