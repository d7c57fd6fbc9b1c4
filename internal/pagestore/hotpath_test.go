package pagestore

import (
	"bytes"
	"testing"

	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// These tests and benchmarks pin the allocation discipline of the sealing
// hot path (see DESIGN.md, "Hot paths & allocation discipline"): with a
// dst of sufficient capacity, SealAppend and OpenAppend perform zero heap
// allocations per page. The gates run under plain `go test`, so a
// regression fails CI, not just a benchmark eyeball.

func TestSealOpenAppendZeroAlloc(t *testing.T) {
	s, err := NewSealer(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	va := mmu.VAddr(0x7000)
	plain := page(0xC4)
	sealBuf := make([]byte, 0, s.SealedLen())
	openBuf := make([]byte, 0, mmu.PageSize)
	blob, err := s.Seal(va, 3, plain)
	if err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		ct, err := s.SealAppend(sealBuf[:0], va, 3, plain)
		if err != nil {
			t.Fatal(err)
		}
		sealBuf = ct[:0]
	}); allocs != 0 {
		t.Errorf("SealAppend with capacity allocates %.1f/op, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		p, err := s.OpenAppend(openBuf[:0], va, 3, blob)
		if err != nil {
			t.Fatal(err)
		}
		openBuf = p[:0]
	}); allocs != 0 {
		t.Errorf("OpenAppend with capacity allocates %.1f/op, want 0", allocs)
	}
}

// TestOpenAppendOutputDoesNotAliasScratch verifies that the plaintext
// OpenAppend returns lives only in the caller's dst: a later call on the
// same Sealer (whose nonce/AAD scratch is reused) must not mutate an
// earlier result held in a different buffer. Same property for SealAppend
// ciphertexts.
func TestOpenAppendOutputDoesNotAliasScratch(t *testing.T) {
	s, err := NewSealer(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	va1, va2 := mmu.VAddr(0x1000), mmu.VAddr(0x2000)
	b1, err := s.Seal(va1, 1, page(0x11))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Seal(va2, 1, page(0x22))
	if err != nil {
		t.Fatal(err)
	}

	p1, err := s.OpenAppend(nil, va1, 1, b1)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), p1...)
	if _, err := s.OpenAppend(nil, va2, 1, b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, snapshot) {
		t.Error("second OpenAppend mutated the first call's plaintext")
	}

	c1, err := s.SealAppend(nil, va1, 2, page(0x33))
	if err != nil {
		t.Fatal(err)
	}
	ctSnapshot := append([]byte(nil), c1...)
	if _, err := s.SealAppend(nil, va2, 2, page(0x44)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, ctSnapshot) {
		t.Error("second SealAppend mutated the first call's ciphertext")
	}
}

// TestFetchBatchNoCrossEnclaveLeak drives two enclaves' pages through a
// caching backend whose ciphertext buffers are recycled, and checks each
// enclave only ever gets back plaintext it sealed itself. A buffer-reuse
// bug that let one enclave's bytes bleed into another's fetch would fail
// authentication here (or worse, decode to the wrong fill byte).
func TestFetchBatchNoCrossEnclaveLeak(t *testing.T) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	cache := NewCachedBackend(NewStore(), 2, clock, costs)

	sa, err := NewSealer(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSealer(secret, 2)
	if err != nil {
		t.Fatal(err)
	}
	vas := []mmu.VAddr{0x1000, 0x2000, 0x3000}
	evict := func(s *Sealer, enclaveID uint64, fill byte) {
		t.Helper()
		batch := make([]PageBlob, len(vas))
		for i, va := range vas {
			b, err := s.Seal(va, 1, page(fill))
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = PageBlob{VA: va, Blob: b}
		}
		if err := cache.EvictBatch(enclaveID, batch); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Sealer, enclaveID uint64, fill byte) {
		t.Helper()
		out := make([]Blob, len(vas))
		if err := cache.FetchBatch(enclaveID, vas, out); err != nil {
			t.Fatal(err)
		}
		for i, va := range vas {
			plain, err := s.OpenAppend(nil, va, 1, out[i])
			if err != nil {
				t.Fatalf("enclave %d page %s: %v", enclaveID, va, err)
			}
			if !bytes.Equal(plain, page(fill)) {
				t.Fatalf("enclave %d page %s decoded to foreign content", enclaveID, va)
			}
		}
	}

	// Interleave so the cache (capacity 2 < 3 pages per enclave) keeps
	// writing back, dropping and recycling buffers between the enclaves.
	evict(sa, 1, 0xAA)
	evict(sb, 2, 0xBB)
	check(sa, 1, 0xAA)
	check(sb, 2, 0xBB)
	check(sa, 1, 0xAA)
}

// BenchmarkSealAppend and BenchmarkOpenAppend time one page on each path:
// kernel (where this CPU runs it) and stdlib (crypto/cipher).
func BenchmarkSealAppend(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		s, err := NewSealer(secret, 1)
		if err != nil {
			b.Fatal(err)
		}
		plain := page(0xAB)
		buf := make([]byte, 0, s.SealedLen())
		b.ReportAllocs()
		b.SetBytes(mmu.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct, err := s.SealAppend(buf[:0], 0x1000, 7, plain)
			if err != nil {
				b.Fatal(err)
			}
			buf = ct[:0]
		}
	})
}

func BenchmarkOpenAppend(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		s, err := NewSealer(secret, 1)
		if err != nil {
			b.Fatal(err)
		}
		blob, err := s.Seal(0x1000, 7, page(0xAB))
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, mmu.PageSize)
		b.ReportAllocs()
		b.SetBytes(mmu.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := s.OpenAppend(buf[:0], 0x1000, 7, blob)
			if err != nil {
				b.Fatal(err)
			}
			buf = p[:0]
		}
	})
}

// benchPaths runs bench as a kernel and a stdlib sub-benchmark.
func benchPaths(b *testing.B, bench func(b *testing.B)) {
	b.Run("kernel", func(b *testing.B) {
		if !useKernel {
			b.Skip("no page kernel on this CPU")
		}
		bench(b)
	})
	b.Run("stdlib", func(b *testing.B) { stdlibOnly(func() { bench(b) }) })
}
