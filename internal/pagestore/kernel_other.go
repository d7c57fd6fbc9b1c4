//go:build !amd64

package pagestore

// The page kernels exist only on amd64; elsewhere every seal and open
// takes the crypto/cipher path, and these are never called.

func haveKernel() bool { return false }

func expandPageKey(*pageKey, *[16]byte) { panic("pagestore: no page kernel on this architecture") }

func sealPage(*pageKey, *[pageBytes]byte, *[pageBytes]byte, *[16]byte, *[aadLen]byte, *[16]byte) {
	panic("pagestore: no page kernel on this architecture")
}

func openPage(*pageKey, *[pageBytes]byte, *[pageBytes]byte, *[16]byte, *[aadLen]byte, *[16]byte) {
	panic("pagestore: no page kernel on this architecture")
}
