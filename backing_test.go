package autarky

import (
	"errors"
	"fmt"
	"testing"
)

// runQuotaPressured loads a self-paging enclave whose heap overflows its EPC
// quota and sweeps the heap twice, so pages are evicted and re-fetched
// through whatever backend stack the machine has installed. Returns the
// machine's final cycle count.
func runQuotaPressured(t *testing.T, m *Machine) uint64 {
	t.Helper()
	p, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1 << 40,
		QuotaPages:     32,
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := p.Run(func(ctx *Context) {
		for pass := 0; pass < 2; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m.Cycles()
}

func TestBackingStoreStackInstallsAndCounts(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024), WithBackingStore(
		CachedBacking(24, ORAMBacking(256, nil))))
	if got, want := m.Kernel.Backend().Name(), "cache(24)+oram(256)+store"; got != want {
		t.Fatalf("backend stack name = %q, want %q", got, want)
	}
	runQuotaPressured(t, m)

	snap := m.Metrics()
	if err := snap.Check(); err != nil {
		t.Fatalf("attribution invariant: %v", err)
	}
	if counter(t, snap, "backend.stores") == 0 {
		t.Fatal("no backend stores counted under quota pressure")
	}
	if counter(t, snap, "backend.loads") == 0 {
		t.Fatal("no backend loads counted under quota pressure")
	}
	if counter(t, snap, "backend.bytes") == 0 {
		t.Fatal("no backend bytes counted under quota pressure")
	}
	// Counters aggregate across layers: a cache miss travels to the ORAM
	// layer and is counted as a load there too, so for this two-layer stack
	// loads = (hits + misses at the cache) + (misses passed to the ORAM).
	hits, misses := counter(t, snap, "backend.hits"), counter(t, snap, "backend.misses")
	if hits == 0 {
		t.Fatal("cache absorbed no re-fetches under quota pressure")
	}
	if got := counter(t, snap, "backend.loads"); got != hits+2*misses {
		t.Fatalf("loads %d != cache hits %d + 2x misses %d", got, hits, misses)
	}
}

func TestBackingStoreStacksAreDeterministic(t *testing.T) {
	build := func() *Machine {
		return NewMachine(WithEPCFrames(1024), WithBackingStore(
			CachedBacking(24, ORAMBacking(256, nil))))
	}
	first := runQuotaPressured(t, build())
	second := runQuotaPressured(t, build())
	if first != second {
		t.Fatalf("identical runs over the same stack diverged: %d vs %d cycles", first, second)
	}
}

func TestBackingStorePlainSpecMatchesDefault(t *testing.T) {
	base := runQuotaPressured(t, NewMachine(WithEPCFrames(1024)))
	plain := runQuotaPressured(t, NewMachine(WithEPCFrames(1024), WithBackingStore(PlainBacking())))
	if base != plain {
		t.Fatalf("explicit plain stack diverged from default: %d vs %d cycles", plain, base)
	}
}

func TestBackingStoreInvalidStacksRejected(t *testing.T) {
	// A spec nested past maxBackingDepth — almost certainly a cycle.
	deep := PlainBacking()
	deep.Kind = BackingCached
	deep.Size = 1
	for i := 0; i < maxBackingDepth; i++ {
		deep = CachedBacking(1, deep)
	}
	cases := []struct {
		name string
		spec *BackingStore
	}{
		{"cached zero capacity", CachedBacking(0, nil)},
		{"oram negative slots", ORAMBacking(-1, nil)},
		{"plain with inner", &BackingStore{Kind: BackingPlain, Inner: PlainBacking()}},
		{"plain with size", &BackingStore{Kind: BackingPlain, Size: 8}},
		{"unknown kind", &BackingStore{Kind: BackingKind(99)}},
		{"too deep", deep},
		{"invalid inner layer", CachedBacking(16, ORAMBacking(0, nil))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(WithEPCFrames(1024), WithBackingStore(tc.spec))
			_, err := m.Spawn(testImage(8), Config{})
			if err == nil {
				t.Fatal("Spawn accepted an invalid backing stack")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("error %v does not wrap ErrBadConfig", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != "BackingStore" {
				t.Fatalf("error %v is not a BackingStore ConfigError", err)
			}
			// Spawn surfaces the same deferred rejection.
			if _, err := m.Spawn(testImage(8), Config{}); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Spawn error %v does not wrap ErrBadConfig", err)
			}
		})
	}
}

func TestBackingKindString(t *testing.T) {
	for k, want := range map[BackingKind]string{
		BackingPlain:   "plain",
		BackingCached:  "cached",
		BackingORAM:    "oram",
		BackingKind(7): "BackingKind(7)",
	} {
		if got := k.String(); got != want {
			t.Errorf("BackingKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func ExampleWithBackingStore() {
	m := NewMachine(WithBackingStore(
		CachedBacking(64, ORAMBacking(512, nil))))
	fmt.Println(m.Kernel.Backend().Name())
	// Output: cache(64)+oram(512)+store
}
