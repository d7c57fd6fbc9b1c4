package pagestore

import (
	"bytes"
	"testing"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// blobOf is a sealed-page-sized blob filled with b.
func blobOf(b byte, version uint64) Blob {
	return Blob{Ciphertext: bytes.Repeat([]byte{b}, 64), Version: version, EnclaveID: 1}
}

// bufOf identifies the buffer behind a stored blob.
func bufOf(t *testing.T, st *Store, va mmu.VAddr) *byte {
	t.Helper()
	b, err := st.Get(1, va)
	if err != nil {
		t.Fatal(err)
	}
	return &b.Ciphertext[:1][0]
}

func wantBlob(t *testing.T, st *Store, va mmu.VAddr, fill byte, version uint64) {
	t.Helper()
	got, err := st.Get(1, va)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Ciphertext, blobOf(fill, version).Ciphertext) || got.Version != version {
		t.Fatalf("page %s holds %x v%d, want %02x.. v%d", va, got.Ciphertext[:4], got.Version, fill, version)
	}
}

// TestStoreReusesSlotBuffers pins down who owns which store buffer: a slot
// overwrites its own buffer in place, Delete recycles it for later Puts,
// the archive's first blob is never overwritten, and a corrupted slot's
// buffer is as reusable as any other.
func TestStoreReusesSlotBuffers(t *testing.T) {
	const a, b, c = mmu.VAddr(0x1000), mmu.VAddr(0x2000), mmu.VAddr(0x3000)

	t.Run("overwrite in place", func(t *testing.T) {
		st := NewStore()
		st.Put(1, a, blobOf(1, 1)) // shared with the archive
		st.Put(1, a, blobOf(2, 2)) // the slot's own buffer
		own := bufOf(t, st, a)
		st.Put(1, a, blobOf(3, 3))
		if bufOf(t, st, a) != own {
			t.Fatal("a Put over a slot that owns its buffer did not overwrite it in place")
		}
		wantBlob(t, st, a, 3, 3)
	})

	t.Run("free list", func(t *testing.T) {
		st := NewStore()
		st.Put(1, a, blobOf(1, 1))
		st.Put(1, a, blobOf(2, 2))
		own := bufOf(t, st, a)
		st.Delete(1, a)
		st.Put(1, b, blobOf(5, 1))
		if bufOf(t, st, b) != own {
			t.Fatal("a Put after Delete did not reuse the deleted slot's buffer")
		}
		wantBlob(t, st, b, 5, 1)
	})

	t.Run("archive intact", func(t *testing.T) {
		st := NewStore()
		st.Put(1, a, blobOf(1, 1))
		archived := bufOf(t, st, a)
		for v := uint64(2); v <= 4; v++ {
			st.Put(1, a, blobOf(byte(v), v))
		}
		if !st.Replay(1, a) {
			t.Fatal("no archived blob to replay")
		}
		if bufOf(t, st, a) != archived {
			t.Fatal("Replay did not hand the archive's buffer back to the slot")
		}
		wantBlob(t, st, a, 1, 1)
		// The slot now shares the archive's buffer: neither a Put nor a
		// Delete may touch it.
		st.Put(1, a, blobOf(9, 5))
		st.Delete(1, a)
		st.Put(1, b, blobOf(8, 1))
		st.Put(1, b, blobOf(7, 2))
		if !st.Replay(1, a) {
			t.Fatal("archive lost its blob")
		}
		wantBlob(t, st, a, 1, 1)
	})

	t.Run("corrupted buffer reused", func(t *testing.T) {
		st := NewStore()
		st.Put(1, a, blobOf(1, 1))
		// Corrupting the archive-shared slot copies first.
		if !st.Corrupt(1, a) {
			t.Fatal("nothing to corrupt")
		}
		corrupted := bufOf(t, st, a)
		st.Replay(1, a) // no-op: nothing newer archived yet
		st.Put(1, a, blobOf(2, 2))
		if bufOf(t, st, a) != corrupted {
			t.Fatal("the corrupted slot's own buffer was not overwritten in place")
		}
		st.Put(1, a, blobOf(3, 3))
		st.Replay(1, a)
		wantBlob(t, st, a, 1, 1) // archive untouched by the corruption
		if !st.Corrupt(1, a) {
			t.Fatal("nothing to corrupt")
		}
		corrupted = bufOf(t, st, a)
		st.Delete(1, a)
		st.Put(1, c, blobOf(4, 1))
		if bufOf(t, st, c) != corrupted {
			t.Fatal("a deleted corrupted slot's buffer was not recycled")
		}
		wantBlob(t, st, c, 4, 1)
	})

	t.Run("fetch views", func(t *testing.T) {
		st := NewStore()
		caller := blobOf(1, 1)
		st.Put(1, a, caller)
		st.Put(1, b, blobOf(2, 1))
		st.Put(1, b, blobOf(3, 2))
		caller.Ciphertext[0] = 0xee // the caller's buffer is its own again
		out := make([]Blob, 2)
		if err := st.FetchBatch(1, []mmu.VAddr{a, b}, out); err != nil {
			t.Fatal(err)
		}
		// The views of one batch are distinct buffers, and the caller
		// reusing its eviction buffer while it consumes them changes none.
		caller.Ciphertext[1] = 0xee
		want := [][]byte{blobOf(1, 1).Ciphertext, blobOf(3, 2).Ciphertext}
		for i := range out {
			if !bytes.Equal(out[i].Ciphertext, want[i]) {
				t.Fatalf("view %d = %x.., want %x..", i, out[i].Ciphertext[:4], want[i][:4])
			}
		}
	})
}

// TestCachedBackendWriteBackOrder locks the cache's LRU: hits refresh an
// entry, overwrites refresh it, Drop forgets it, and overflow reaches the
// inner backend oldest first.
func TestCachedBackendWriteBackOrder(t *testing.T) {
	clock := sim.NewClock()
	inner := &orderBackend{Store: NewStore()}
	c := NewCachedBackend(inner, 3, clock, sim.DefaultCosts())
	evict := func(vpn uint64) {
		if err := c.EvictBatch(1, []PageBlob{{VA: mmu.PageOf(vpn), Blob: blobOf(byte(vpn), 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	evict(1)
	evict(2)
	evict(3)
	out := make([]Blob, 1)
	if err := c.FetchBatch(1, []mmu.VAddr{mmu.PageOf(1)}, out); err != nil { // 1 becomes MRU
		t.Fatal(err)
	}
	evict(4) // writes back 2
	evict(3) // refresh 3
	if err := c.Drop(1, mmu.PageOf(1)); err != nil {
		t.Fatal(err)
	}
	evict(5)
	evict(6) // writes back 4
	evict(7) // writes back 3
	want := []uint64{2, 4, 3}
	if len(inner.order) != len(want) {
		t.Fatalf("written back %v, want %v", inner.order, want)
	}
	for i := range want {
		if inner.order[i] != want[i] {
			t.Fatalf("written back %v, want %v", inner.order, want)
		}
	}
	if got := metrics.Of(clock).Count(metrics.CntBackendHits); got != 1 {
		t.Fatalf("%d cache hits, want 1", got)
	}
}

// orderBackend records the pages written back to it, in order.
type orderBackend struct {
	*Store
	order []uint64
}

func (o *orderBackend) EvictBatch(enclaveID uint64, pages []PageBlob) error {
	for _, pb := range pages {
		o.order = append(o.order, pb.VA.VPN())
	}
	return o.Store.EvictBatch(enclaveID, pages)
}

// Steady-state paging through the store and the blob cache allocates
// nothing: evict, fetch and drop recycle every buffer and entry.
func TestStoreAndCacheSteadyStateZeroAlloc(t *testing.T) {
	st := NewStore()
	c := NewCachedBackend(NewStore(), 8, sim.NewClock(), sim.DefaultCosts())
	batch := make([]PageBlob, 4)
	vas := make([]mmu.VAddr, 4)
	out := make([]Blob, 4)
	sealed := blobOf(0, 0).Ciphertext // the caller's reused seal arena
	round := uint64(0)
	step := func() {
		base := (round % 16) * 4
		round++
		sealed[0] = byte(round)
		for i := range batch {
			vas[i] = mmu.PageOf(base + uint64(i))
			batch[i] = PageBlob{VA: vas[i], Blob: Blob{Ciphertext: sealed, Version: round, EnclaveID: 1}}
		}
		for _, b := range []PagingBackend{st, c} {
			if err := b.EvictBatch(1, batch); err != nil {
				t.Fatal(err)
			}
			if err := b.FetchBatch(1, vas, out); err != nil {
				t.Fatal(err)
			}
			for _, va := range vas {
				if err := b.Drop(1, va); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("a steady-state evict/fetch/drop round allocates %.1f objects", allocs)
	}
}

func BenchmarkStoreEvictFetchDrop(b *testing.B) {
	st := NewStore()
	blob := blobOf(1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := mmu.PageOf(uint64(i % 256))
		st.Put(1, va, blob)
		if _, err := st.Get(1, va); err != nil {
			b.Fatal(err)
		}
		st.Delete(1, va)
	}
}
