package sgx

import (
	"fmt"

	"autarky/internal/mmu"
)

// PageType is the EPCM page type.
type PageType uint8

// EPCM page types (subset relevant to the model).
const (
	// PTReg is a regular enclave page.
	PTReg PageType = iota
	// PTTCS is a thread control structure page.
	PTTCS
	// PTTrim marks a page scheduled for removal (SGXv2 EMODT target).
	PTTrim
)

// String names the page type.
func (t PageType) String() string {
	switch t {
	case PTReg:
		return "REG"
	case PTTCS:
		return "TCS"
	case PTTrim:
		return "TRIM"
	default:
		return fmt.Sprintf("PageType(%d)", uint8(t))
	}
}

// EPCMEntry is the trusted per-frame metadata SGX consults after every
// enclave-mode page walk (paper §2.1 "Memory management"). It lives in
// secure memory the OS cannot touch; the OS can only change it through the
// SGX instructions.
type EPCMEntry struct {
	Valid     bool
	Type      PageType
	EnclaveID uint64
	LinAddr   mmu.VAddr // the one linear address the frame may be mapped at
	Perms     mmu.Perms // maximal permissions (EPCM R/W/X)
	// Blocked is set by EBLOCK as the first step of eviction; a blocked
	// page faults on access.
	Blocked bool
	// Pending is set by EAUG until the enclave EACCEPTs the page.
	Pending bool
	// PR ("permissions restricted") is set by EMODPR until EACCEPT.
	PR bool
	// Modified is set by EMODT until EACCEPT.
	Modified bool
	// blockEpoch records the tracking epoch at EBLOCK time, for the
	// ETRACK/EWB handshake.
	blockEpoch uint64
}

// Frame is one 4 KiB EPC frame plus its EPCM entry.
type Frame struct {
	Data []byte
	EPCM EPCMEntry
}

// EPC is the enclave page cache: a fixed pool of protected frames. Frames
// are addressed by PFN within [Base, Base+NumFrames).
//
// The frame table grows on first use, a chunk at a time: a machine that
// touches a few hundred frames of a large EPC pays for those, not for the
// whole table. Chunks never move, so a *Frame stays valid for the life of
// the EPC.
type EPC struct {
	Base mmu.PFN
	n    int
	// chunks[i] holds frames [i*epcChunk, (i+1)*epcChunk), nil until one of
	// them is first used.
	chunks []*[epcChunk]Frame
	// Frames [next, n) have never been allocated; free holds the indexes of
	// freed frames below next (LIFO). Together they hand out frames in the
	// order a LIFO list seeded with every frame, lowest on top, would.
	next uint32
	free []uint32
}

// epcChunk is the number of frames per frame-table chunk.
const epcChunk = 256

// NewEPC creates an EPC of n frames whose PFNs start at base. base must be
// non-zero so that mmu.NoPFN is never a valid EPC frame.
func NewEPC(base mmu.PFN, n int) *EPC {
	if base == mmu.NoPFN {
		panic("sgx: EPC base must be non-zero")
	}
	if n <= 0 {
		panic("sgx: EPC must have at least one frame")
	}
	return &EPC{Base: base, n: n, chunks: make([]*[epcChunk]Frame, (n+epcChunk-1)/epcChunk)}
}

// NumFrames reports the EPC capacity in frames.
func (e *EPC) NumFrames() int { return e.n }

// FreeFrames reports how many frames are unallocated.
func (e *EPC) FreeFrames() int { return len(e.free) + e.n - int(e.next) }

// Contains reports whether pfn lies inside the EPC.
func (e *EPC) Contains(pfn mmu.PFN) bool {
	return pfn >= e.Base && pfn < e.Base+mmu.PFN(e.n)
}

// frame returns frame i, materializing its chunk on first use.
func (e *EPC) frame(i uint32) *Frame {
	c := e.chunks[i/epcChunk]
	if c == nil {
		c = new([epcChunk]Frame)
		e.chunks[i/epcChunk] = c
	}
	return &c[i%epcChunk]
}

// Alloc takes a free frame, zeroes it, and returns its PFN.
func (e *EPC) Alloc() (mmu.PFN, error) {
	var i uint32
	switch {
	case len(e.free) > 0:
		i = e.free[len(e.free)-1]
		e.free = e.free[:len(e.free)-1]
	case int(e.next) < e.n:
		i = e.next
		e.next++
	default:
		return mmu.NoPFN, ErrEPCFull
	}
	f := e.frame(i)
	if f.Data == nil {
		// Frame data is allocated lazily on first Alloc: a large EPC costs
		// nothing until used.
		f.Data = make([]byte, mmu.PageSize)
	} else {
		clear(f.Data)
	}
	f.EPCM = EPCMEntry{}
	return e.Base + mmu.PFN(i), nil
}

// Free invalidates the EPCM entry and returns the frame to the pool.
func (e *EPC) Free(pfn mmu.PFN) {
	f := e.Entry(pfn)
	f.EPCM = EPCMEntry{}
	e.free = append(e.free, uint32(pfn-e.Base))
}

// Entry returns the frame structure for pfn. It panics on a non-EPC PFN;
// callers must check Contains first when the PFN is untrusted.
func (e *EPC) Entry(pfn mmu.PFN) *Frame {
	if !e.Contains(pfn) {
		panic(fmt.Sprintf("sgx: PFN %d outside EPC", pfn))
	}
	return e.frame(uint32(pfn - e.Base))
}

// Data returns the frame contents for pfn.
func (e *EPC) Data(pfn mmu.PFN) []byte { return e.Entry(pfn).Data }
