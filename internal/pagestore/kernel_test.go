package pagestore

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"autarky/internal/mmu"
)

// stdlibOnly runs f with every seal and open on the crypto/cipher path.
func stdlibOnly(f func()) {
	saved := useKernel
	useKernel = false
	defer func() { useKernel = saved }()
	f()
}

// eachPath runs check once per sealing path this CPU has: the page kernel,
// if it has one, then crypto/cipher.
func eachPath(t *testing.T, check func(path string)) {
	t.Helper()
	if useKernel {
		check("kernel")
	} else {
		t.Log("no page kernel on this CPU: checking the crypto/cipher path only")
	}
	stdlibOnly(func() { check("stdlib") })
}

// kernelSealer builds a Sealer for key that has the page kernel, or skips
// the test where this CPU cannot run it.
func kernelSealer(tb testing.TB, key []byte, enclaveID uint64) *Sealer {
	tb.Helper()
	s, err := newSealer(key, enclaveID)
	if err != nil {
		tb.Fatal(err)
	}
	if s.kern == nil {
		tb.Skip("this CPU lacks AES, PCLMULQDQ, AVX2, VAES, VPCLMULQDQ or OS-enabled YMM state: no page kernel to test")
	}
	return s
}

// stdlibBlob seals like the Sealer does, from the documented nonce and
// additional data, with nothing but crypto/cipher.
func stdlibBlob(tb testing.TB, key []byte, enclaveID uint64, va mmu.VAddr, version uint64, plain []byte) []byte {
	tb.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		tb.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		tb.Fatal(err)
	}
	var nonce [12]byte
	binary.LittleEndian.PutUint32(nonce[0:4], uint32(va.VPN()))
	binary.LittleEndian.PutUint64(nonce[4:12], version)
	var aad [24]byte
	binary.LittleEndian.PutUint64(aad[0:8], enclaveID)
	binary.LittleEndian.PutUint64(aad[8:16], uint64(va.PageBase()))
	binary.LittleEndian.PutUint64(aad[16:24], version)
	return aead.Seal(nil, nonce[:], plain, aad[:])
}

// checkKernelCase seals one page on the kernel, compares the blob with
// crypto/cipher's, and opens each path's blob on the other path.
func checkKernelCase(t *testing.T, key []byte, enclaveID uint64, va mmu.VAddr, version uint64, plain []byte) {
	t.Helper()
	s := kernelSealer(t, key, enclaveID)
	want := stdlibBlob(t, key, enclaveID, va, version, plain)
	got, err := s.SealAppend(nil, va, version, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("key %x va %#x version %d: kernel blob differs from crypto/cipher's", key, uint64(va), version)
	}
	blob := Blob{Ciphertext: want, Version: version, EnclaveID: enclaveID}
	opened, err := s.Open(va, version, blob)
	if err != nil || !bytes.Equal(opened, plain) {
		t.Fatalf("va %#x version %d: kernel cannot open crypto/cipher's blob: %v", uint64(va), version, err)
	}
	stdlibOnly(func() {
		blob.Ciphertext = got
		opened, err = s.Open(va, version, blob)
	})
	if err != nil || !bytes.Equal(opened, plain) {
		t.Fatalf("va %#x version %d: crypto/cipher path cannot open the kernel's blob: %v", uint64(va), version, err)
	}
}

func TestSealKernelMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, mmu.PageSize)
	rng.Read(random)
	pages := [][]byte{page(0), page(0xFF), random}
	vas := []mmu.VAddr{0, mmu.PageOf(1), mmu.PageOf(0xFFFF_FFFF), mmu.PageOf(1 << 32), mmu.PageOf(1<<36 - 1)}
	versions := []uint64{0, 1, 2, 1<<64 - 1}
	for i := 0; i < 4; i++ {
		key := make([]byte, 16)
		rng.Read(key)
		enclaveID := rng.Uint64()
		for _, plain := range pages {
			for _, va := range vas {
				for _, version := range versions {
					checkKernelCase(t, key, enclaveID, va, version, plain)
				}
			}
		}
	}
}

// FuzzSealKernel compares the kernel with crypto/cipher on fuzzed keys,
// pages, versions and addresses. Run it for 10s in `make fuzz`.
func FuzzSealKernel(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(0), uint64(0), uint64(0), []byte{0})
	f.Add([]byte("fuzz-kernel-key!"), uint64(1<<32), uint64(1<<64-1), uint64(7), []byte{0xFF})
	f.Add([]byte{}, uint64(0x1234), uint64(2), uint64(1<<63), []byte("page content"))
	f.Fuzz(func(t *testing.T, keySeed []byte, vpn, version, enclaveID uint64, fill []byte) {
		key := make([]byte, 16)
		copy(key, keySeed)
		plain := make([]byte, mmu.PageSize)
		if len(fill) > 0 {
			for i := range plain {
				plain[i] = fill[i%len(fill)] ^ byte(i/len(fill))
			}
		}
		checkKernelCase(t, key, enclaveID, mmu.PageOf(vpn&(1<<36-1)), version, plain)
	})
}

// TestOpenFailureClearsPlaintext: an open that fails authentication leaves
// the page-sized region after dst zeroed on both paths, as crypto/cipher
// does, so a reused buffer never holds unauthenticated plaintext.
func TestOpenFailureClearsPlaintext(t *testing.T) {
	s, err := NewSealer(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Seal(0x3000, 4, page(0x5C))
	if err != nil {
		t.Fatal(err)
	}
	tampered := good
	tampered.Ciphertext = append([]byte(nil), good.Ciphertext...)
	tampered.Ciphertext[mmu.PageSize+3] ^= 1 // the tag
	flipped := good
	flipped.Ciphertext = append([]byte(nil), good.Ciphertext...)
	flipped.Ciphertext[100] ^= 1
	cases := []struct {
		name    string
		version uint64
		blob    Blob
	}{
		{"tag", 4, tampered},
		{"ciphertext", 4, flipped},
		{"version", 5, good},
	}
	eachPath(t, func(path string) {
		for _, tc := range cases {
			buf := make([]byte, 3, 3+mmu.PageSize)
			full := buf[:cap(buf)]
			for i := range full {
				full[i] = 0xEE
			}
			if _, err := s.OpenAppend(buf, 0x3000, tc.version, tc.blob); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("%s, %s: want an integrity error, got %v", path, tc.name, err)
			}
			if !bytes.Equal(full[:3], []byte{0xEE, 0xEE, 0xEE}) {
				t.Fatalf("%s, %s: the failed open changed dst itself", path, tc.name)
			}
			if !bytes.Equal(full[3:], make([]byte, mmu.PageSize)) {
				t.Fatalf("%s, %s: the failed open left bytes after dst that are not zero", path, tc.name)
			}
		}
	})
}

// TestSealOpenInPlace: both paths seal and open with dst and the source
// sharing their start, which crypto/cipher allows.
func TestSealOpenInPlace(t *testing.T) {
	s, err := NewSealer(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := page(0x3A)
	want, err := s.SealAppend(nil, 0x9000, 2, plain)
	if err != nil {
		t.Fatal(err)
	}
	eachPath(t, func(path string) {
		buf := make([]byte, s.SealedLen())
		copy(buf, plain)
		ct, err := s.SealAppend(buf[:0], 0x9000, 2, buf[:mmu.PageSize])
		if err != nil || !bytes.Equal(ct, want) {
			t.Fatalf("%s: in-place seal: %v", path, err)
		}
		pt, err := s.OpenAppend(buf[:0], 0x9000, 2, Blob{Ciphertext: buf})
		if err != nil || !bytes.Equal(pt, plain) {
			t.Fatalf("%s: in-place open: %v", path, err)
		}
	})
}

// TestInexactOverlapPanics: both paths keep crypto/cipher's panic when dst
// overlaps the source at a different start.
func TestInexactOverlapPanics(t *testing.T) {
	s, err := NewSealer(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Seal(0x1000, 1, page(1))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s with an inexact overlap did not panic", what)
			}
		}()
		f()
	}
	eachPath(t, func(path string) {
		buf := make([]byte, 2*s.SealedLen())
		mustPanic(path+" SealAppend", func() { s.SealAppend(buf[1:1], 0x1000, 1, buf[:mmu.PageSize]) })
		copy(buf, blob.Ciphertext)
		mustPanic(path+" OpenAppend", func() {
			s.OpenAppend(buf[16:16], 0x1000, 1, Blob{Ciphertext: buf[:s.SealedLen()]})
		})
	})
}
