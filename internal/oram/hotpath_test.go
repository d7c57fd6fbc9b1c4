package oram

import (
	"bytes"
	"slices"
	"testing"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// runLayout replays one fixed access sequence — alternating reads and
// writes over a 512-block tree — and returns the final tree layout and the
// stash peak.
func runLayout(t *testing.T) ([]uint32, int) {
	t.Helper()
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	o := New(512, 64, 4, clock, &costs, 7)
	rng := sim.NewRand(11)
	buf := make([]byte, 8)
	for i := 0; i < 5000; i++ {
		id := uint32(rng.Intn(512))
		var err error
		if i%2 == 0 {
			buf[0] = byte(i)
			err = o.Access(id, true, buf, nil)
		} else {
			err = o.Access(id, false, nil, buf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return slices.Clone(o.tree), o.Stats.StashPeak
}

// The tree layout and the stash peak are a function of the access sequence
// alone: the greedy write-back takes stash blocks in arrival order, never
// in map order.
func TestTreeLayoutIsDeterministic(t *testing.T) {
	tree1, peak1 := runLayout(t)
	tree2, peak2 := runLayout(t)
	if !slices.Equal(tree1, tree2) {
		t.Fatal("the same access sequence left two different tree layouts")
	}
	if peak1 != peak2 {
		t.Fatalf("StashPeak %d then %d for the same access sequence", peak1, peak2)
	}
}

// A write replaces only the first len(data) bytes of a block, whichever
// Store carries it.
func TestPartialWriteKeepsTail(t *testing.T) {
	const blockSize = 64
	stores := []struct {
		name string
		s    func() Store
	}{
		{"direct", func() Store {
			clock := sim.NewClock()
			costs := sim.DefaultCosts()
			return Direct{O: New(32, blockSize, 4, clock, &costs, 1)}
		}},
		{"cache", func() Store {
			c, _ := newCache(32, 4)
			return c
		}},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			s := st.s()
			full := bytes.Repeat([]byte{0xaa}, blockSize)
			if err := s.Write(5, full); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(5, []byte("abc")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, blockSize)
			if err := s.Read(5, got); err != nil {
				t.Fatal(err)
			}
			want := append([]byte("abc"), full[3:]...)
			if !bytes.Equal(got, want) {
				t.Fatalf("after a 3-byte write the block reads %x, want %x", got, want)
			}
		})
	}
}

// Once warm, an ORAM access allocates nothing: neither the placement-only
// access the paging backend makes, nor a read into a caller's buffer, nor
// a cache miss that writes a dirty victim back.
func TestAccessZeroAlloc(t *testing.T) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	o := New(512, mmu.PageSize, 4, clock, &costs, 3)
	c := NewCache(New(256, 64, 4, clock, &costs, 5), 8, clock, &costs)
	page := make([]byte, mmu.PageSize)
	tag := make([]byte, 8)
	next := uint32(0)
	step := func() {
		id := next % 512
		next += 37
		if err := o.Access(id, true, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := o.Access(id, false, nil, page); err != nil {
			t.Fatal(err)
		}
		if err := c.Write(id%256, tag); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Fatalf("a warm ORAM access allocates %.1f objects", allocs)
	}
}

// BenchmarkAccessPlacement is the paging backend's access: a page-sized
// block tree whose payloads are never materialized.
func BenchmarkAccessPlacement(b *testing.B) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	o := New(512, mmu.PageSize, 4, clock, &costs, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := o.Access(uint32(i*37)%512, i%2 == 0, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheMiss is the cached ORAM's miss path: every write misses
// and every miss writes a dirty victim back through the tree.
func BenchmarkCacheMiss(b *testing.B) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	c := NewCache(New(1024, mmu.PageSize, 4, clock, &costs, 1), 16, clock, &costs)
	tag := make([]byte, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Write(uint32(i*37)%1024, tag); err != nil {
			b.Fatal(err)
		}
	}
}

// The paging backend places each evicted page in the tree, hands the blob
// to the inner store, reuses a dropped page's block, refuses a page once
// every block is taken, and — warm — moves pages without allocating.
func TestBackendPlacesPagesAndReusesBlocks(t *testing.T) {
	clock := sim.NewClock()
	b := NewBackend(pagestore.NewStore(), 2, clock, sim.DefaultCosts(), 1)
	if got := b.Name(); got != "oram(2)+store" {
		t.Fatalf("Name = %q", got)
	}
	blob := pagestore.Blob{Ciphertext: bytes.Repeat([]byte{7}, 32), Version: 1, EnclaveID: 1}
	for _, vpn := range []uint64{1, 2} {
		if err := b.Evict(1, mmu.PageOf(vpn), blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Evict(1, mmu.PageOf(3), blob); err == nil {
		t.Fatal("a third page fit in a two-block backend")
	}
	got, err := b.Fetch(1, mmu.PageOf(2))
	if err != nil || !bytes.Equal(got.Ciphertext, blob.Ciphertext) {
		t.Fatalf("Fetch = %x, %v", got.Ciphertext, err)
	}
	if err := b.Drop(1, mmu.PageOf(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Evict(1, mmu.PageOf(3), blob); err != nil {
		t.Fatalf("a dropped page's block was not reused: %v", err)
	}
	if real := metrics.Of(clock).Count(metrics.CntORAMReal); real == 0 {
		t.Fatal("fetches made no real tree accesses")
	}

	vas := []mmu.VAddr{mmu.PageOf(3)}
	batch := []pagestore.PageBlob{{VA: vas[0], Blob: blob}}
	out := make([]pagestore.Blob, 1)
	step := func() {
		if err := b.FetchBatch(1, vas, out); err != nil {
			t.Fatal(err)
		}
		if err := b.Drop(1, vas[0]); err != nil {
			t.Fatal(err)
		}
		if err := b.EvictBatch(1, batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a warm fetch/drop/evict round allocates %.1f objects", allocs)
	}
}
