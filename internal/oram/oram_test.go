package oram

import (
	"bytes"
	"testing"
	"testing/quick"

	"autarky/internal/metrics"
	"autarky/internal/sim"
)

func newORAM(blocks int) (*PathORAM, *sim.Clock) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	return New(blocks, 64, 4, clock, &costs, 1), clock
}

func TestAccessFreshBlockIsZero(t *testing.T) {
	o, _ := newORAM(16)
	// A destination longer than the block gets one block's worth.
	data := bytes.Repeat([]byte{0xff}, 80)
	if err := o.Access(3, false, nil, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:64], make([]byte, 64)) || !bytes.Equal(data[64:], bytes.Repeat([]byte{0xff}, 16)) {
		t.Fatalf("fresh block read as %x", data)
	}
}

func TestReadYourWrites(t *testing.T) {
	o, _ := newORAM(16)
	want := []byte("oblivious!")
	if err := o.Access(5, true, want, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := o.Access(5, false, nil, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("got %q", got[:len(want)])
	}
}

func TestAccessOutOfRange(t *testing.T) {
	o, _ := newORAM(8)
	if err := o.Access(8, false, nil, nil); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestWriteTooLarge(t *testing.T) {
	o, _ := newORAM(8)
	if err := o.Access(0, true, make([]byte, 65), nil); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestORAMPropertyModelEquivalence(t *testing.T) {
	// The ORAM must behave exactly like a flat array under any access
	// sequence.
	check := func(seed uint64) bool {
		const blocks = 32
		o, _ := newORAM(blocks)
		model := make(map[uint32][]byte)
		rng := sim.NewRand(seed)
		for i := 0; i < 300; i++ {
			id := uint32(rng.Intn(blocks))
			if rng.Intn(2) == 0 {
				data := make([]byte, 8)
				rng.Bytes(data)
				if err := o.Access(id, true, data, nil); err != nil {
					return false
				}
				stored, ok := model[id]
				if !ok {
					stored = make([]byte, 64)
					model[id] = stored
				}
				copy(stored, data)
			} else {
				got := make([]byte, 64)
				if err := o.Access(id, false, nil, got); err != nil {
					return false
				}
				want, ok := model[id]
				if !ok {
					want = make([]byte, 64)
				}
				if !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStashStaysBounded(t *testing.T) {
	o, _ := newORAM(128)
	rng := sim.NewRand(2)
	for i := 0; i < 5000; i++ {
		if err := o.Access(uint32(rng.Intn(128)), true, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// PathORAM stash is O(log N) w.h.p.; a generous bound catches
	// write-back bugs that leave blocks stranded.
	if o.Stats.StashPeak > 40 {
		t.Fatalf("stash peaked at %d blocks", o.Stats.StashPeak)
	}
}

func TestAccessChargesPathCost(t *testing.T) {
	o, clock := newORAM(64)
	costs := sim.DefaultCosts()
	before := clock.Cycles()
	o.Access(0, false, nil, nil)
	minCost := uint64(2*o.Levels()*4) * costs.ORAMBlockMove
	if got := clock.Cycles() - before; got < minCost {
		t.Fatalf("access charged %d, want >= %d", got, minCost)
	}
}

func TestObliviousModeChargesScans(t *testing.T) {
	oCached, clkCached := newORAM(256)
	oBlind, clkBlind := newORAM(256)
	oBlind.Oblivious = true
	oCached.Access(0, false, nil, nil)
	oBlind.Access(0, false, nil, nil)
	if clkBlind.Cycles() <= clkCached.Cycles() {
		t.Fatal("oblivious mode must cost more (posmap/stash scans)")
	}
	if oBlind.Stats.ScanWords == 0 {
		t.Fatal("no scan words recorded")
	}
}

func TestTreeGeometry(t *testing.T) {
	o, _ := newORAM(100)
	// leaves*z >= blocks
	leaves := 1 << (o.Levels() - 1)
	if leaves*4 < 100 {
		t.Fatalf("tree too small: %d leaves for 100 blocks", leaves)
	}
}

// --- Cache ---

func newCache(blocks, capacity int) (*Cache, *sim.Clock) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	o := New(blocks, 64, 4, clock, &costs, 1)
	return NewCache(o, capacity, clock, &costs), clock
}

func TestCacheReadYourWrites(t *testing.T) {
	c, _ := newCache(64, 8)
	if err := c.Write(3, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if err := c.Read(3, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hi" {
		t.Fatalf("got %q", buf)
	}
	if c.Metrics().Counter(metrics.CntORAMCacheHits) == 0 {
		t.Fatal("second access should hit")
	}
}

func TestCacheEvictionWritesBackDirty(t *testing.T) {
	c, _ := newCache(64, 2)
	c.Write(1, []byte{0xaa})
	c.Write(2, []byte{0xbb})
	c.Read(3, make([]byte, 1)) // evicts LRU (1), dirty -> writeback
	st := c.Metrics()
	if ev, wb := st.Counter(metrics.CntORAMCacheEvictions), st.Counter(metrics.CntORAMCacheWritebacks); ev == 0 || wb == 0 {
		t.Fatalf("evictions=%d writeback=%d", ev, wb)
	}
	// Block 1 must round-trip through the ORAM.
	buf := make([]byte, 1)
	if err := c.Read(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xaa {
		t.Fatalf("lost write: %x", buf[0])
	}
}

func TestCacheCleanEvictionSkipsWriteback(t *testing.T) {
	c, _ := newCache(64, 2)
	c.Read(1, make([]byte, 1))
	c.Read(2, make([]byte, 1))
	wb := c.Metrics().Counter(metrics.CntORAMCacheWritebacks)
	c.Read(3, make([]byte, 1)) // evict clean block 1
	if c.Metrics().Counter(metrics.CntORAMCacheWritebacks) != wb {
		t.Fatal("clean eviction wrote back")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c, _ := newCache(64, 2)
	c.Read(1, make([]byte, 1))
	c.Read(2, make([]byte, 1))
	c.Read(1, make([]byte, 1)) // 1 becomes MRU
	c.Read(3, make([]byte, 1)) // evicts 2
	misses := c.Metrics().Counter(metrics.CntORAMCacheMisses)
	c.Read(1, make([]byte, 1)) // should hit
	if c.Metrics().Counter(metrics.CntORAMCacheMisses) != misses {
		t.Fatal("MRU block was evicted")
	}
}

func TestCacheFlush(t *testing.T) {
	c, _ := newCache(64, 8)
	c.Write(1, []byte{1})
	c.Write(2, []byte{2})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if wb := c.Metrics().Counter(metrics.CntORAMCacheWritebacks); wb != 2 {
		t.Fatalf("flush wrote back %d", wb)
	}
	// Flushing twice writes nothing new.
	c.Flush()
	if c.Metrics().Counter(metrics.CntORAMCacheWritebacks) != 2 {
		t.Fatal("double flush rewrote clean blocks")
	}
}

func TestCachePropertyModelEquivalence(t *testing.T) {
	check := func(seed uint64) bool {
		const blocks = 48
		c, _ := newCache(blocks, 6)
		model := make(map[uint32]byte)
		rng := sim.NewRand(seed)
		for i := 0; i < 400; i++ {
			id := uint32(rng.Intn(blocks))
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(256))
				if err := c.Write(id, []byte{v}); err != nil {
					return false
				}
				model[id] = v
			} else {
				buf := make([]byte, 1)
				if err := c.Read(id, buf); err != nil {
					return false
				}
				if buf[0] != model[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheMissCostDwarfsHitCost(t *testing.T) {
	c, clock := newCache(1<<12, 16)
	// Miss.
	t0 := clock.Cycles()
	c.Read(100, make([]byte, 1))
	missCost := clock.Cycles() - t0
	// Hit.
	t1 := clock.Cycles()
	c.Read(100, make([]byte, 1))
	hitCost := clock.Cycles() - t1
	if missCost < 100*hitCost {
		t.Fatalf("miss %d vs hit %d: the Autarky cache must make hits orders cheaper", missCost, hitCost)
	}
}

func TestDirectStoreRoundTrip(t *testing.T) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	o := New(32, 64, 4, clock, &costs, 1)
	o.Oblivious = true
	d := Direct{O: o}
	if err := d.Write(7, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := d.Read(7, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abc" {
		t.Fatalf("got %q", buf)
	}
}

func TestCacheTouchCallback(t *testing.T) {
	c, _ := newCache(64, 4)
	var touched []int
	c.Touch = func(slot int, write bool) error {
		touched = append(touched, slot)
		return nil
	}
	c.Write(1, []byte{1})
	c.Read(1, make([]byte, 1))
	if len(touched) == 0 {
		t.Fatal("touch callback never invoked")
	}
	for _, s := range touched {
		if s < 0 || s >= c.Capacity() {
			t.Fatalf("slot %d out of range", s)
		}
	}
}
