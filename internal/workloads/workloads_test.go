package workloads

import (
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/oram"
	"autarky/internal/sim"
)

func newProcess(t *testing.T, heapPages int, libs []libos.Library) (*libos.Process, *sim.Clock) {
	t.Helper()
	k := hostos.NewHost(sim.NewClock(), sim.DefaultCosts(), hostos.DefaultGeometry(8192), []byte("wl"))
	if libs == nil {
		libs = []libos.Library{{Name: "libwl.so", Pages: 2}}
	}
	p, err := libos.Load(k, libos.AppImage{
		Name:      "wl",
		Libraries: libs,
		HeapPages: heapPages,
	}, libos.Config{SelfPaging: true, Policy: libos.PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	return p, k.Clock
}

func run(t *testing.T, p *libos.Process, app func(ctx *core.Context)) {
	t.Helper()
	if err := p.Run(app); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// --- Hunspell ------------------------------------------------------------

func TestHunspellCheckCorrectness(t *testing.T) {
	p, _ := newProcess(t, 128, nil)
	cfg := HunspellConfig{Langs: []string{"en"}, WordsPerDict: 200, BucketsPerDict: 64, PagesPerDict: 32}
	run(t, p, func(ctx *core.Context) {
		h, err := BuildHunspell(p, ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			ok, err := h.Check(ctx, "en", Word("en", i))
			if err != nil || !ok {
				t.Fatalf("word %d: %v %v", i, ok, err)
			}
		}
		ok, err := h.Check(ctx, "en", "misspelledd")
		if err != nil || ok {
			t.Fatalf("misspelled word accepted: %v %v", ok, err)
		}
		if _, err := h.Check(ctx, "xx", "nope"); err == nil {
			t.Fatal("unknown language accepted")
		}
	})
}

func TestHunspellAccessTraceMatchesCheck(t *testing.T) {
	p, _ := newProcess(t, 128, nil)
	cfg := HunspellConfig{Langs: []string{"en"}, WordsPerDict: 100, BucketsPerDict: 32, PagesPerDict: 32}
	run(t, p, func(ctx *core.Context) {
		h, err := BuildHunspell(p, ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := h.Dicts["en"]
		// Record the ground-truth pages a Check touches and compare with
		// the precomputed AccessTrace used by the attacker.
		var touched []mmu.VAddr
		p.Kernel.CPU.AccessObserver = func(va mmu.VAddr, at mmu.AccessType) {
			if at == mmu.AccessRead && p.Heap.Contains(va) {
				touched = append(touched, va.PageBase())
			}
		}
		word := Word("en", 42)
		if _, err := h.Check(ctx, "en", word); err != nil {
			t.Fatal(err)
		}
		p.Kernel.CPU.AccessObserver = nil
		want := d.AccessTrace(word)
		if len(touched) != len(want) {
			t.Fatalf("touched %v, want %v", touched, want)
		}
		for i := range want {
			if touched[i] != want[i] {
				t.Fatalf("touched %v, want %v", touched, want)
			}
		}
	})
}

func TestHunspellCheckTextProgress(t *testing.T) {
	p, _ := newProcess(t, 128, nil)
	cfg := HunspellConfig{Langs: []string{"en"}, WordsPerDict: 50, BucketsPerDict: 16, PagesPerDict: 16}
	run(t, p, func(ctx *core.Context) {
		h, err := BuildHunspell(p, ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		words := []string{Word("en", 1), "wrongg", Word("en", 2)}
		correct, err := h.CheckText(ctx, "en", words)
		if err != nil || correct != 2 {
			t.Fatalf("correct = %d err = %v", correct, err)
		}
		if p.Runtime.Progress() != 3 {
			t.Fatalf("progress = %d", p.Runtime.Progress())
		}
	})
}

// --- FreeType --------------------------------------------------------------

func TestFreeTypeRendersGlyphPages(t *testing.T) {
	p, _ := newProcess(t, 16, []libos.Library{FreeTypeLibrary(2)})
	run(t, p, func(ctx *core.Context) {
		ft, err := BuildFreeType(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		var execed []mmu.VAddr
		p.Kernel.CPU.AccessObserver = func(va mmu.VAddr, at mmu.AccessType) {
			if at == mmu.AccessExec {
				execed = append(execed, va)
			}
		}
		if err := ft.RenderText(ctx, "Go!"); err != nil {
			t.Fatal(err)
		}
		p.Kernel.CPU.AccessObserver = nil
		// Per glyph: shared rasterizer + the glyph's own page.
		if len(execed) != 6 {
			t.Fatalf("%d exec events for 3 glyphs", len(execed))
		}
		for i, g := range "Go!" {
			want, _ := ft.GlyphPage(g)
			if execed[2*i+1] != want {
				t.Fatalf("glyph %c executed %s, want %s", g, execed[2*i+1], want)
			}
		}
		if err := ft.Render(ctx, 'é'); err == nil {
			t.Fatal("non-ASCII glyph accepted")
		}
	})
}

func TestFreeTypeLibraryShape(t *testing.T) {
	lib := FreeTypeLibrary(3)
	if lib.TotalPages() != 3+FreeTypeGlyphs {
		t.Fatalf("TotalPages = %d", lib.TotalPages())
	}
}

// --- JPEG ------------------------------------------------------------------

func TestJPEGDecodeTouchesTmpPerBusyBlock(t *testing.T) {
	p, _ := newProcess(t, 64, nil)
	cfg := JPEGConfig{BlocksW: 8, BlocksH: 4, BusyFraction: 0.5, TmpPages: 4, OutPagesPerBlockRow: 1, Seed: 3}
	run(t, p, func(ctx *core.Context) {
		j, err := BuildJPEG(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		busy := 0
		for _, b := range j.Busy {
			if b {
				busy++
			}
		}
		deep := j.TmpPages()[2]
		count := 0
		p.Kernel.CPU.AccessObserver = func(va mmu.VAddr, at mmu.AccessType) {
			if va.PageBase() == deep && at == mmu.AccessWrite {
				count++
			}
		}
		j.Decode(ctx)
		p.Kernel.CPU.AccessObserver = nil
		if count != busy {
			t.Fatalf("deep tmp page written %d times, want %d (busy blocks)", count, busy)
		}
	})
}

func TestJPEGDeterministicSecret(t *testing.T) {
	p, _ := newProcess(t, 64, nil)
	cfg := JPEGConfig{BlocksW: 8, BlocksH: 4, BusyFraction: 0.5, TmpPages: 4, OutPagesPerBlockRow: 1, Seed: 3}
	run(t, p, func(ctx *core.Context) {
		j1, _ := BuildJPEG(p, cfg)
		j2, _ := BuildJPEG(p, cfg)
		for i := range j1.Busy {
			if j1.Busy[i] != j2.Busy[i] {
				t.Fatal("secret image not deterministic for a seed")
			}
		}
	})
}

// --- uthash ------------------------------------------------------------------

func TestUTHashLookupAndRehash(t *testing.T) {
	p, _ := newProcess(t, 256, nil)
	cfg := UTHashConfig{Items: 512, ItemsPerBkt: 10}
	run(t, p, func(ctx *core.Context) {
		backend, err := NewDirectBackend(p.Alloc, UTHashArenaPages(cfg)+8)
		if err != nil {
			t.Fatal(err)
		}
		u, err := BuildUTHash(ctx, backend, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 512; i += 13 {
			if !u.Lookup(ctx, u.Key(i)) {
				t.Fatalf("key %d missing", i)
			}
		}
		if u.Lookup(ctx, "key-99999999") {
			t.Fatal("absent key found")
		}
		before := u.MaxChain()
		if err := u.Rehash(ctx); err != nil {
			t.Fatal(err)
		}
		if u.MaxChain() > before {
			t.Fatalf("rehash lengthened chains: %d -> %d", before, u.MaxChain())
		}
		for i := 0; i < 512; i += 13 {
			if !u.Lookup(ctx, u.Key(i)) {
				t.Fatalf("key %d missing after rehash", i)
			}
		}
	})
}

func TestUTHashArenaTooSmall(t *testing.T) {
	p, _ := newProcess(t, 32, nil)
	run(t, p, func(ctx *core.Context) {
		backend, _ := NewDirectBackend(p.Alloc, 2)
		if _, err := BuildUTHash(ctx, backend, UTHashConfig{Items: 512, ItemsPerBkt: 10}); err == nil {
			t.Fatal("tiny arena accepted")
		}
	})
}

// --- Memcached ----------------------------------------------------------------

func TestMemcachedGetTouchesItemPage(t *testing.T) {
	p, clock := newProcess(t, 128, nil)
	cfg := MemcachedConfig{Items: 256, ItemSize: 1024}
	run(t, p, func(ctx *core.Context) {
		backend, err := NewDirectBackend(p.Alloc, MemcachedArenaPages(cfg))
		if err != nil {
			t.Fatal(err)
		}
		m, err := BuildMemcached(ctx, backend, clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantSlot := m.itemSlot(17)
		wantVA := backend.Pages[wantSlot]
		hit := false
		p.Kernel.CPU.AccessObserver = func(va mmu.VAddr, at mmu.AccessType) {
			if va.PageBase() == wantVA {
				hit = true
			}
		}
		m.Get(ctx, 17)
		p.Kernel.CPU.AccessObserver = nil
		if !hit {
			t.Fatal("GET did not touch the item's page")
		}
		if m.Gets != 1 {
			t.Fatalf("Gets = %d", m.Gets)
		}
	})
}

func TestMemcachedOverORAM(t *testing.T) {
	p, clock := newProcess(t, 16, nil)
	cfg := MemcachedConfig{Items: 128, ItemSize: 1024}
	run(t, p, func(ctx *core.Context) {
		costs := p.Kernel.Costs
		arena := MemcachedArenaPages(cfg)
		po := oram.New(256, 4096, 4, clock, costs, 5)
		cache := oram.NewCache(po, 8, clock, costs)
		backend, err := NewORAMBackend(cache, arena, "oram-cached")
		if err != nil {
			t.Fatal(err)
		}
		m, err := BuildMemcached(ctx, backend, clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			m.Get(ctx, i)
		}
		if cache.Metrics().Counter(metrics.CntORAMCacheMisses) == 0 {
			t.Fatal("ORAM cache never exercised")
		}
		// No enclave faults: everything either pinned or behind the ORAM.
		if got := metrics.Of(clock).Count(metrics.CntOSFaults); got != 0 {
			t.Fatalf("ORAM-backed memcached faulted %d times", got)
		}
	})
}

func TestMemcachedValidatesConfig(t *testing.T) {
	p, clock := newProcess(t, 16, nil)
	run(t, p, func(ctx *core.Context) {
		backend, _ := NewDirectBackend(p.Alloc, 4)
		if _, err := BuildMemcached(ctx, backend, clock, MemcachedConfig{Items: 64, ItemSize: 8192}); err == nil {
			t.Fatal("oversized items accepted")
		}
		if _, err := BuildMemcached(ctx, backend, clock, MemcachedConfig{Items: 4096, ItemSize: 1024}); err == nil {
			t.Fatal("undersized arena accepted")
		}
	})
}

// --- Kernels -------------------------------------------------------------------

func TestAllKernelsRunWithoutFaultsWhenResident(t *testing.T) {
	suites := [][]Kernel{NBench(), Phoenix(), PARSEC()}
	names := map[string]bool{}
	for _, suite := range suites {
		for _, k := range suite {
			if names[k.Name] {
				t.Fatalf("duplicate kernel name %q", k.Name)
			}
			names[k.Name] = true
			k := k
			t.Run(k.Name, func(t *testing.T) {
				p, clock := newProcess(t, k.ArenaPages+8, nil)
				run(t, p, func(ctx *core.Context) {
					pages, err := p.Alloc.AllocPages(k.ArenaPages)
					if err != nil {
						t.Fatal(err)
					}
					env := &KernelEnv{
						Ctx:   ctx,
						Pages: pages,
						Clock: clock,
						Rng:   sim.NewRand(1),
						Scale: 1,
					}
					before := clock.Cycles()
					k.Run(env)
					if clock.Cycles() == before {
						t.Fatal("kernel consumed no cycles")
					}
				})
				if got := metrics.Of(clock).Count(metrics.CntOSFaults); got != 0 {
					t.Fatalf("kernel faulted %d times with everything resident", got)
				}
			})
		}
	}
	if len(names) != 10+6+8 {
		t.Fatalf("expected 24 kernels, found %d", len(names))
	}
}

func TestBackendNames(t *testing.T) {
	p, _ := newProcess(t, 16, nil)
	run(t, p, func(ctx *core.Context) {
		db, _ := NewDirectBackend(p.Alloc, 2)
		if db.Name() != "direct" || db.Slots() != 2 {
			t.Fatal("direct backend metadata")
		}
	})
}

func TestKernelsDeterministic(t *testing.T) {
	// Two identical runs of every kernel must consume identical cycles —
	// the property all experiment comparisons rest on.
	for _, k := range append(Phoenix(), PARSEC()...) {
		k := k
		run := func() uint64 {
			p, clock := newProcess(t, k.ArenaPages+8, nil)
			var cycles uint64
			if err := p.Run(func(ctx *core.Context) {
				pages, err := p.Alloc.AllocPages(k.ArenaPages)
				if err != nil {
					t.Fatal(err)
				}
				t0 := clock.Cycles()
				k.Run(&KernelEnv{Ctx: ctx, Pages: pages, Clock: clock, Rng: sim.NewRand(7), Scale: 1})
				cycles = clock.Cycles() - t0
			}); err != nil {
				t.Fatal(err)
			}
			return cycles
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s not deterministic: %d vs %d cycles", k.Name, a, b)
		}
	}
}

func TestKernelsReportProgress(t *testing.T) {
	// Every Phoenix/PARSEC kernel must report forward progress — the
	// rate-limit policy's clock (§5.2.4).
	for _, k := range append(Phoenix(), PARSEC()...) {
		k := k
		p, clock := newProcess(t, k.ArenaPages+8, nil)
		if err := p.Run(func(ctx *core.Context) {
			pages, _ := p.Alloc.AllocPages(k.ArenaPages)
			k.Run(&KernelEnv{Ctx: ctx, Pages: pages, Clock: clock, Rng: sim.NewRand(7), Scale: 1})
		}); err != nil {
			t.Fatal(err)
		}
		if p.Runtime.Progress() == 0 {
			t.Errorf("%s reported no progress", k.Name)
		}
	}
}
