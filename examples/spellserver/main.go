// Spellserver: the paper's Hunspell scenario (§7.3). A spell-checking
// server loads 15 language dictionaries that together exceed EPC, places
// each dictionary's pages in its own page cluster, and serves queries.
// A fault then reveals only *which dictionary* was used — never which word
// was checked.
package main

import (
	"fmt"
	"log"

	"autarky"
	"autarky/internal/core"
	"autarky/internal/sim"
	"autarky/internal/workloads"
)

func main() {
	m := autarky.NewMachine()

	const dicts = 15
	cfg := workloads.HunspellConfig{
		Langs:          make([]string, dicts),
		WordsPerDict:   1500,
		BucketsPerDict: 512,
		PagesPerDict:   40,
	}
	cfg.Langs[0] = "en_US"
	for i := 1; i < dicts; i++ {
		cfg.Langs[i] = fmt.Sprintf("lang_%02d", i)
	}
	totalPages := dicts * cfg.PagesPerDict

	p, err := m.Spawn(autarky.AppImage{
		Name:      "spellserver",
		Libraries: []autarky.Library{{Name: "libhunspell.so", Pages: 6}},
		HeapPages: totalPages + 16,
	}, autarky.Config{
		SelfPaging: true,
		Policy:     autarky.PolicyClusters,
		QuotaPages: 12 + totalPages/4, // EPC holds a quarter of the dictionaries
	})
	if err != nil {
		log.Fatal(err)
	}

	err = p.Run(func(ctx *core.Context) {
		h, err := workloads.BuildHunspell(p.Process, ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		// One manual cluster per dictionary: accesses within a dictionary
		// are indistinguishable; only the language leaks.
		for _, lang := range cfg.Langs {
			id := p.Reg.NewCluster(0)
			for _, va := range h.Dicts[lang].Pages() {
				if err := p.Reg.AddPage(id, va.VPN()); err != nil {
					log.Fatal(err)
				}
			}
		}

		// Spell-check a text against en_US (loaded first, so by now it has
		// been evicted — the first query faults in the whole dictionary).
		rng := sim.NewRand(42)
		words := make([]string, 2000)
		for i := range words {
			words[i] = workloads.Word("en_US", rng.Intn(cfg.WordsPerDict))
		}
		start := m.Cycles()
		correct, err := h.CheckText(ctx, "en_US", words)
		if err != nil {
			log.Fatal(err)
		}
		cycles := m.Cycles() - start
		fmt.Printf("spell-checked %d words (%d correct) in %d cycles\n", len(words), correct, cycles)
	})
	if err != nil {
		log.Fatal(err)
	}

	st := p.Runtime.Metrics()
	faults, _ := st.Named("runtime.self_faults")
	fetched, _ := st.Named("runtime.pages_fetched")
	fmt.Printf("cluster fetches: %d faults brought in %d pages (whole dictionaries at a time)\n",
		faults, fetched)
	fmt.Println("the OS saw only masked faults — it can count dictionary loads, not words")
}
