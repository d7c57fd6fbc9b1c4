package sgx

import (
	"bytes"
	"testing"

	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// Allocation gates for the translation hot path (see DESIGN.md, "Hot paths
// & allocation discipline"): a TLB-hit translate — the overwhelmingly
// common case between paging events — must not touch the heap, and a full
// TLB flush must cost O(1) work, not a sweep of every way.

// hitCPU builds a CPU with one regular page mapped and its translation
// already in the TLB.
func hitCPU(tb testing.TB) (*CPU, mmu.VAddr) {
	tb.Helper()
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	pt := mmu.NewPageTable(clock, &costs)
	tlb := mmu.NewTLB(16, 4, clock, &costs)
	epc := NewEPC(0x1000, 8)
	reg := NewRegularMemory(1 << 20)
	c := NewCPU(clock, &costs, tlb, pt, epc, reg, []byte("hotpath"))
	va := mmu.VAddr(0x40_0000)
	pt.Map(va, reg.Alloc(), mmu.PermRW, false)
	if _, fault := c.translate(va, mmu.AccessRead); fault != nil {
		tb.Fatalf("warm-up translate faulted: %v", fault)
	}
	return c, va
}

func TestTranslateTLBHitZeroAlloc(t *testing.T) {
	c, va := hitCPU(t)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, fault := c.translate(va, mmu.AccessRead); fault != nil {
			t.Fatalf("translate faulted: %v", fault)
		}
	}); allocs != 0 {
		t.Errorf("TLB-hit translate allocates %.1f/op, want 0", allocs)
	}
}

// missRig is a serving machine's translation path in miniature: two
// self-paging enclaves in ELRANGE slots 1 GiB apart, each a heap of
// missObjects objects of four pages, all resident and mapped with A and D
// set. Each request enters one enclave, which flushes the TLB, and loads
// one object's four pages, so every load misses the TLB and walks.
type missRig struct {
	c    *CPU
	encl [2]*Enclave
	tcs  [2]*TCS
}

const (
	missObjects  = 24
	missObjPages = 4
)

func newMissRig(tb testing.TB) *missRig {
	tb.Helper()
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	pt := mmu.NewPageTable(clock, &costs)
	tlb := mmu.NewTLB(64, 4, clock, &costs)
	epc := NewEPC(0x1000, 256)
	m := &missRig{c: NewCPU(clock, &costs, tlb, pt, epc, NewRegularMemory(1<<20), []byte("hotpath"))}
	const pages = missObjects * missObjPages
	for i := range m.encl {
		base := mmu.VAddr(i+1) << 30
		e, err := m.c.ECREATE(base, pages*mmu.PageSize, AttrSelfPaging)
		if err != nil {
			tb.Fatal(err)
		}
		e.Runtime = rigRuntime{}
		for p := 0; p < pages; p++ {
			va := base + mmu.VAddr(p*mmu.PageSize)
			pfn, err := m.c.EADD(e, va, nil, mmu.PermRW, PTReg)
			if err != nil {
				tb.Fatal(err)
			}
			pt.MapAD(va, pfn, mmu.PermRW, true, true, true)
		}
		if m.tcs[i], err = m.c.AddTCS(e, 2); err != nil {
			tb.Fatal(err)
		}
		if err := m.c.EINIT(e); err != nil {
			tb.Fatal(err)
		}
		m.encl[i] = e
	}
	m.request(tb, 0) // fill the page table's node cache
	return m
}

// request is request i: enclave i%2 is entered and object i%missObjects of
// its heap read.
func (m *missRig) request(tb testing.TB, i int) {
	e := m.encl[i%2]
	m.c.setMode(e, m.tcs[i%2])
	m.c.TLB.FlushAll(1)
	obj := e.Base + mmu.VAddr(i%missObjects*missObjPages*mmu.PageSize)
	for p := 0; p < missObjPages; p++ {
		if _, fault := m.c.translate(obj+mmu.VAddr(p*mmu.PageSize), mmu.AccessRead); fault != nil {
			tb.Fatalf("translate faulted: %v", fault)
		}
	}
	m.c.clearMode()
}

// TestTranslateTLBMissZeroAlloc: a translation that misses the TLB — the
// walk, the EPCM and A/D checks and the fill — allocates nothing.
func TestTranslateTLBMissZeroAlloc(t *testing.T) {
	m := newMissRig(t)
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		i++
		m.request(t, i)
	}); allocs != 0 {
		t.Errorf("TLB-miss translate allocates %.1f per request, want 0", allocs)
	}
}

// slotBackend keeps one sealed page in a buffer allocated up front, the
// way a warm store slot would, so a test can measure the EWB/ELDU hand-off
// alone.
type slotBackend struct {
	blob pagestore.Blob
	buf  []byte
}

func (s *slotBackend) Name() string { return "slot" }

func (s *slotBackend) Evict(id uint64, va mmu.VAddr, b pagestore.Blob) error {
	return pagestore.EvictOne(s, id, va, b)
}

func (s *slotBackend) Fetch(id uint64, va mmu.VAddr) (pagestore.Blob, error) {
	return pagestore.FetchOne(s, id, va)
}

func (s *slotBackend) Drop(uint64, mmu.VAddr) error { return nil }

func (s *slotBackend) EvictBatch(_ uint64, pages []pagestore.PageBlob) error {
	for _, pb := range pages {
		s.buf = append(s.buf[:0], pb.Blob.Ciphertext...)
		s.blob = pb.Blob
		s.blob.Ciphertext = s.buf
	}
	return nil
}

func (s *slotBackend) FetchBatch(_ uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	for i := range pages {
		out[i] = s.blob
	}
	return nil
}

// TestEWBELDURoundTripZeroAlloc: in steady state, evicting one page (EBLOCK,
// ETRACK, shootdown, EWB) and loading it back (ELDU) allocates nothing.
// EWB and ELDU hand the backend a batch of one held on the enclave; a batch
// built per call would escape through the backend interface and allocate
// on every page.
func TestEWBELDURoundTripZeroAlloc(t *testing.T) {
	r := newRig(t)
	r.paging = &slotBackend{buf: make([]byte, 0, 2*mmu.PageSize)}
	e, _ := r.buildEnclave(t, 0, 1)
	pte, _ := r.pt.Get(rigBase)
	want := bytes.Clone(r.epc.Data(pte.PFN))
	roundTrip := func() {
		evictOne(t, r, e, rigBase)
		pfn, err := r.cpu.ELDU(e, rigBase, r.paging)
		if err != nil {
			t.Fatal(err)
		}
		r.pt.Map(rigBase, pfn, mmu.PermRW, true)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("EWB+ELDU round trip allocates %.1f/op, want 0", allocs)
	}
	pte, _ = r.pt.Get(rigBase)
	if !bytes.Equal(r.epc.Data(pte.PFN), want) {
		t.Fatal("page content changed across round trips")
	}
}

func BenchmarkTranslateTLBHit(b *testing.B) {
	c, va := hitCPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fault := c.translate(va, mmu.AccessRead); fault != nil {
			b.Fatalf("translate faulted: %v", fault)
		}
	}
}

// BenchmarkTranslateTLBMiss measures one request of missRig: a TLB flush
// and four translations that miss.
func BenchmarkTranslateTLBMiss(b *testing.B) {
	m := newMissRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.request(b, i)
	}
}

// BenchmarkTLBFlushAll measures the epoch-based full flush. Every enclave
// crossing flushes, so this must stay O(1) regardless of geometry.
func BenchmarkTLBFlushAll(b *testing.B) {
	c, va := hitCPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TLB.FlushAll(1)
		if _, fault := c.translate(va, mmu.AccessRead); fault != nil {
			b.Fatalf("refill translate faulted: %v", fault)
		}
	}
}
