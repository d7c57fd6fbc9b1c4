package pagestore

import (
	"crypto/subtle"
	"slices"
	"unsafe"

	"autarky/internal/mmu"
)

// The page kernel (kernel_amd64.s) is AES-128-GCM for the one shape page
// sealing takes: a page of plaintext, the Sealer's 12-byte nonce and
// aadLen bytes of additional data, and a tagLen-byte tag. It runs on
// 256-bit VAES and VPCLMULQDQ, and its blobs are byte-identical to
// crypto/cipher's. CPUs without those features, other architectures and
// inputs of any other shape take the crypto/cipher path.

const (
	pageBytes = 4096
	aadLen    = 24
	tagLen    = 16
)

// The kernels are written for 4 KiB pages.
var (
	_ [pageBytes - mmu.PageSize]struct{}
	_ [mmu.PageSize - pageBytes]struct{}
)

// pageKey is a Sealer's expanded kernel key, computed once by NewSealer.
// kernel_amd64.s fixes its layout: the 11 AES-128 round keys, each
// repeated in both 128-bit lanes of a ymm register; H^16..H^1 in the
// byte-reflected, doubled form of Go's GCM kernel; and the XOR of the two
// halves of each power, for Karatsuba multiplication.
type pageKey struct {
	rk [11 * 32]byte
	h  [16 * 16]byte
	hk [16 * 16]byte
}

// useKernel makes NewSealer build a kernel key, and page-shaped seals and
// opens use it, when the CPU has the kernel's features. Tests clear it to
// force the crypto/cipher path.
var useKernel = haveKernel()

// sealKernel appends the sealed page to dst, as cipher.AEAD.Seal does.
func (s *Sealer) sealKernel(dst, plain []byte) []byte {
	ret := slices.Grow(dst, pageBytes+tagLen)[:len(dst)+pageBytes+tagLen]
	out := ret[len(dst):]
	if inexactOverlap(out, plain) {
		panic("crypto/cipher: invalid buffer overlap of output and input")
	}
	sealPage(s.kern, (*[pageBytes]byte)(out), (*[pageBytes]byte)(plain), &s.j0, &s.aadBuf, (*[tagLen]byte)(out[pageBytes:]))
	return ret
}

// openKernel appends the opened page of a SealedLen ciphertext to dst, as
// cipher.AEAD.Open does: when the tag does not match, it clears the
// plaintext it wrote and fails with ErrIntegrity.
func (s *Sealer) openKernel(dst, ct []byte) ([]byte, error) {
	ret := slices.Grow(dst, pageBytes)[:len(dst)+pageBytes]
	out := ret[len(dst):]
	if inexactOverlap(out, ct) {
		panic("crypto/cipher: invalid buffer overlap of output and input")
	}
	var tag [tagLen]byte
	openPage(s.kern, (*[pageBytes]byte)(out), (*[pageBytes]byte)(ct), &s.j0, &s.aadBuf, &tag)
	if subtle.ConstantTimeCompare(tag[:], ct[pageBytes:]) != 1 {
		clear(out)
		return nil, ErrIntegrity
	}
	return ret, nil
}

// inexactOverlap reports whether x and y share memory other than at a
// common start: the aliasing crypto/cipher's AEADs refuse.
func inexactOverlap(x, y []byte) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0 := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	y0 := uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return x0 != y0 && x0 < y0+uintptr(len(y)) && y0 < x0+uintptr(len(x))
}
