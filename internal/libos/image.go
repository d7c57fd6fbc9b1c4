// Package libos is the Graphene-like library OS layer of the prototype
// (paper §6): it loads unmodified "binaries" (synthetic images with code
// and data segments) into an enclave, wires up the Autarky runtime,
// performs automatic clustering of code pages per library and of data pages
// in the allocator, and exposes a heap allocator to the application.
package libos

import (
	"crypto/sha256"
	"encoding/binary"

	"autarky/internal/mmu"
)

// Function is one function within a library, for fine-grained code
// clustering ("a loader may also create clusters at the finer granularity
// of individual functions", §5.2.3).
type Function struct {
	Name  string
	Pages int
}

// Library is one loadable code object. Code page contents are synthesized
// deterministically from the library name, so measurements are reproducible.
type Library struct {
	Name  string
	Pages int // total code pages (ignored if Funcs given)
	// Funcs, when non-empty, partitions the library into functions that are
	// clustered individually.
	Funcs []Function
	// Uses names libraries whose code this library calls into. Their pages
	// join this library's cluster, creating the shared-page structure of
	// §5.2.3 ("if two libraries use a third, their respective clusters will
	// share pages and will also be fetched together").
	Uses []string
}

// TotalPages returns the library's code page count.
func (l *Library) TotalPages() int {
	if len(l.Funcs) == 0 {
		return l.Pages
	}
	n := 0
	for _, f := range l.Funcs {
		n += f.Pages
	}
	return n
}

// AppImage describes a complete enclave application image.
type AppImage struct {
	Name      string
	Libraries []Library
	// DataPages is the initialized data segment size.
	DataPages int
	// HeapPages is the dynamic allocation arena.
	HeapPages int
	// StackPages backs the (pinned) stack and runtime metadata.
	StackPages int
	// ReservePages extends ELRANGE past the loaded image without backing
	// it: SGXv2 enclaves materialize these pages at run time via
	// ExtendHeap (EAUG + EACCEPT). SGXv1 enclaves cannot use them.
	ReservePages int
}

// LoadedPages counts the pages the loader adds to the enclave: every
// library's code, data, heap and stack. ReservePages are not loaded.
func (img AppImage) LoadedPages() int {
	n := img.DataPages + img.HeapPages + img.stackPages()
	for i := range img.Libraries {
		n += img.Libraries[i].TotalPages()
	}
	return n
}

// stackPages is StackPages, 8 when unset.
func (img AppImage) stackPages() int {
	if img.StackPages == 0 {
		return 8
	}
	return img.StackPages
}

// synthesizeCode fills one page of deterministic "code" bytes for a library
// page, so enclave measurements are stable across runs.
func synthesizeCode(lib string, page int) []byte {
	h := sha256.New()
	h.Write([]byte(lib))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(page))
	h.Write(b[:])
	seed := h.Sum(nil)
	out := make([]byte, mmu.PageSize)
	for i := 0; i < mmu.PageSize; i += len(seed) {
		copy(out[i:], seed)
	}
	return out
}

// Region is a contiguous range of the enclave address space.
type Region struct {
	Name  string
	Base  mmu.VAddr
	Pages int
	Perms mmu.Perms
}

// End returns the first address past the region.
func (r Region) End() mmu.VAddr { return r.Base + mmu.VAddr(r.Pages*mmu.PageSize) }

// Contains reports whether va falls inside the region.
func (r Region) Contains(va mmu.VAddr) bool { return va >= r.Base && va < r.End() }

// Page returns the base address of the i'th page of the region.
func (r Region) Page(i int) mmu.VAddr {
	if i < 0 || i >= r.Pages {
		panic("libos: region page index out of range")
	}
	return r.Base + mmu.VAddr(i*mmu.PageSize)
}

// PageVAs lists all page base addresses of the region.
func (r Region) PageVAs() []mmu.VAddr {
	out := make([]mmu.VAddr, r.Pages)
	for i := range out {
		out[i] = r.Page(i)
	}
	return out
}
