// Vmpartition: the paper's §5.4 virtualization mode. A hypervisor carves
// the physical EPC into static partitions, one per guest VM; each guest's
// kernel and Autarky enclaves run completely unmodified ("cloud platforms
// that statically partition EPC will require no modification"). Transparent
// hypervisor paging of EPC is impossible by design — the hypervisor cannot
// observe the masked faults either.
package main

import (
	"fmt"
	"log"

	"autarky"
)

func main() {
	// 1024 frames of physical EPC, split 512/256 across two guests.
	hv := autarky.NewHypervisor(1024)
	guests := make([]*autarky.Machine, 2)
	for i, frames := range []int{512, 256} {
		g, err := hv.CreateGuest(frames)
		if err != nil {
			log.Fatal(err)
		}
		guests[i] = g
		base, n := autarky.GuestEPCRange(g)
		fmt.Printf("guest %d: EPC frames [%d, %d)\n", i, base, uint64(base)+uint64(n))
	}
	fmt.Printf("unassigned EPC frames: %d\n\n", hv.Remaining())

	// Each guest runs a self-paging enclave under quota pressure — exactly
	// the bare-metal flow, no special casing anywhere.
	for gi, g := range guests {
		p, err := g.Spawn(autarky.AppImage{
			Name:      fmt.Sprintf("tenant-%d", gi),
			Libraries: []autarky.Library{{Name: "libtenant.so", Pages: 4}},
			HeapPages: 64,
		}, autarky.Config{
			SelfPaging:     true,
			Policy:         autarky.PolicyRateLimit,
			RateLimitBurst: 100_000,
			QuotaPages:     40,
		})
		if err != nil {
			log.Fatal(err)
		}
		err = p.Run(func(ctx *autarky.Context) {
			for pass := 0; pass < 2; pass++ {
				for i, va := range p.Heap.PageVAs() {
					ctx.Write(va, []byte{byte(gi), byte(i)})
				}
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		st := p.Runtime.Metrics()
		faults, _ := st.Named("runtime.self_faults")
		fetched, _ := st.Named("runtime.pages_fetched")
		fmt.Printf("guest %d tenant: %d self-paging faults, %d pages fetched, 0 attacks flagged\n",
			gi, faults, fetched)
	}
	fmt.Println("\nboth tenants paged securely inside disjoint EPC partitions")
}
