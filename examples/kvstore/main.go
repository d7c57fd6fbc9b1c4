// Kvstore: the paper's Memcached + ORAM scenario (§7.3, Fig. 8). The store
// oversubscribes EPC, so item accesses would leak through paging; instead
// all items live behind the cached software ORAM that Autarky makes
// practical — the enclave-managed cache absorbs hot traffic, and only
// misses run the (oblivious) PathORAM protocol.
package main

import (
	"fmt"
	"log"

	"autarky"
	"autarky/internal/core"
	"autarky/internal/oram"
	"autarky/internal/workloads"
	"autarky/internal/ycsb"
)

func main() {
	m := autarky.NewMachine()

	mcfg := workloads.MemcachedConfig{Items: 4096, ItemSize: 1024}
	arena := workloads.MemcachedArenaPages(mcfg)

	cachePageCount := (arena*128/400 + 8) // the pinned ORAM cache buffer
	p, err := m.Spawn(autarky.AppImage{
		Name:      "kvstore",
		Libraries: []autarky.Library{{Name: "libmemcached.so", Pages: 6}},
		HeapPages: cachePageCount,
	}, autarky.Config{
		SelfPaging: true,
		Policy:     autarky.PolicyORAM,
		QuotaPages: 12 + arena*190/400,
	})
	if err != nil {
		log.Fatal(err)
	}

	err = p.Run(func(ctx *core.Context) {
		// Paper-scale PathORAM (1 GiB tree), cache at the 128:400 ratio.
		po := oram.New(1<<18, 4096, 4, m.Clock, m.Costs, 99)
		cache := oram.NewCache(po, arena*128/400, m.Clock, m.Costs)
		// The cache is backed by real enclave-managed (pinned) pages: every
		// hit and fill flows through the architectural access path, and the
		// Autarky ISA hides that trace from the OS (§5.2.2).
		cachePages, err := p.Alloc.AllocPages(cache.Capacity())
		if err != nil {
			log.Fatal(err)
		}
		cache.Touch = func(slot int, write bool) error {
			va := cachePages[slot]
			if write {
				ctx.Store(va)
			} else {
				ctx.Load(va)
			}
			return nil
		}
		backend, err := workloads.NewORAMBackend(cache, arena, "oram-cached")
		if err != nil {
			log.Fatal(err)
		}
		kv, err := workloads.BuildMemcached(ctx, backend, m.Clock, mcfg)
		if err != nil {
			log.Fatal(err)
		}

		for _, genName := range []string{"uniform", "zipfian"} {
			var gen ycsb.Generator
			if genName == "uniform" {
				gen = ycsb.NewUniform(mcfg.Items, 1)
			} else {
				gen = ycsb.NewZipfian(mcfg.Items, 0.99, 1)
			}
			wl := ycsb.NewWorkloadC(gen)
			const requests = 3000
			start := m.Cycles()
			for i := 0; i < requests; i++ {
				kv.Get(ctx, wl.Next().Key)
			}
			cycles := m.Cycles() - start
			reqPerSec := float64(requests) / (float64(cycles) / 3e9)
			st := cache.Metrics()
			hits, _ := st.Named("oram.cache_hits")
			misses, _ := st.Named("oram.cache_misses")
			fmt.Printf("%-8s: %6.0f req/s  (cache: %d hits, %d misses)\n",
				gen.Name(), reqPerSec, hits, misses)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	st := p.Runtime.Metrics()
	faults, _ := st.Named("runtime.self_faults")
	forwarded, _ := st.Named("runtime.forwarded_faults")
	fmt.Printf("page faults the OS observed: %d (every ORAM structure page is pinned)\n",
		faults+forwarded)
	fmt.Println("the access pattern to items is cryptographically hidden by the ORAM")
}
