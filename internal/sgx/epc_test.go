package sgx

import (
	"errors"
	"testing"

	"autarky/internal/mmu"
)

// TestEPCLazyTableKeepsPFNOrder pins the allocation order the lazy frame
// table must keep: lowest never-used frame first, except that freed frames
// are reused last-freed first — the order of a LIFO list seeded with every
// frame, lowest on top. The EPC spans several table chunks, so the order
// must also hold across chunk boundaries.
func TestEPCLazyTableKeepsPFNOrder(t *testing.T) {
	const base, n = mmu.PFN(0x100), 2*epcChunk + 3
	epc := NewEPC(base, n)
	if epc.NumFrames() != n || epc.FreeFrames() != n {
		t.Fatalf("NumFrames %d, FreeFrames %d, want %d", epc.NumFrames(), epc.FreeFrames(), n)
	}
	if !epc.Contains(base+n-1) || epc.Contains(base+n) {
		t.Fatal("Contains does not cover exactly the configured frames")
	}
	// A never-allocated frame reads as an empty, invalid entry.
	if f := epc.Entry(base + n - 1); f.EPCM.Valid || f.Data != nil {
		t.Fatalf("untouched frame = %+v", f.EPCM)
	}

	alloc := func() mmu.PFN {
		t.Helper()
		pfn, err := epc.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		return pfn
	}
	for i := 0; i < epcChunk+1; i++ {
		if got := alloc(); got != base+mmu.PFN(i) {
			t.Fatalf("allocation %d took frame %#x, want %#x", i, got, base+mmu.PFN(i))
		}
	}
	kept := epc.Entry(base + 3)
	epc.Free(base + 3)
	epc.Free(base + epcChunk)
	if got := alloc(); got != base+epcChunk {
		t.Fatalf("took %#x, want the last-freed %#x", got, base+epcChunk)
	}
	if got := alloc(); got != base+3 {
		t.Fatalf("took %#x, want the freed %#x", got, base+3)
	}
	if epc.Entry(base+3) != kept {
		t.Fatal("a frame moved: *Frame must stay valid for the life of the EPC")
	}
	if got := alloc(); got != base+epcChunk+1 {
		t.Fatalf("took %#x, want the next untouched %#x", got, base+epcChunk+1)
	}
	for epc.FreeFrames() > 0 {
		alloc()
	}
	if _, err := epc.Alloc(); !errors.Is(err, ErrEPCFull) {
		t.Fatalf("alloc past capacity: %v", err)
	}
}
