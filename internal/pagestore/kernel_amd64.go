package pagestore

// expandPageKey fills k from a 16-byte AES key: the round keys, H and the
// powers of H the kernels multiply by.
//
//go:noescape
func expandPageKey(k *pageKey, key *[16]byte)

// sealPage encrypts src into dst under nonce block j0 and writes the tag
// for aad. dst and src may be the same page.
//
//go:noescape
func sealPage(k *pageKey, dst, src *[pageBytes]byte, j0 *[16]byte, aad *[aadLen]byte, tag *[16]byte)

// openPage decrypts src into dst under nonce block j0 and writes the tag
// the blob must carry; the caller compares it. dst and src may be the same
// page.
//
//go:noescape
func openPage(k *pageKey, dst, src *[pageBytes]byte, j0 *[16]byte, aad *[aadLen]byte, tag *[16]byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// haveKernel reports whether CPUID and XGETBV show every feature the page
// kernels use: AES, PCLMULQDQ, AVX, AVX2, VAES and VPCLMULQDQ, with the OS
// saving the XMM and YMM state.
func haveKernel() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		pclmulqdq = 1 << 1
		aesni     = 1 << 25
		osxsave   = 1 << 27
		avx       = 1 << 28
	)
	if ecx1&(pclmulqdq|aesni|osxsave|avx) != pclmulqdq|aesni|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const (
		avx2       = 1 << 5 // EBX
		vaes       = 1 << 9 // ECX
		vpclmulqdq = 1 << 10
	)
	return ebx7&avx2 != 0 && ecx7&(vaes|vpclmulqdq) == vaes|vpclmulqdq
}
