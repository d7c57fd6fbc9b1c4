package pagestore

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"autarky/internal/mmu"
)

var secret = []byte("test-root-secret")

func page(b byte) []byte {
	p := make([]byte, mmu.PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestSealOpenRoundTrip(t *testing.T) {
	s, err := NewSealer(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := page(0xab)
	blob, err := s.Seal(0x1000, 1, plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(0x1000, 1, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("roundtrip corrupted data")
	}
}

func TestSealRejectsWrongSize(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	if _, err := s.Seal(0x1000, 1, []byte("short")); err == nil {
		t.Fatal("sealed a non-page buffer")
	}
}

func TestOpenRejectsWrongVersion(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	blob, _ := s.Seal(0x1000, 3, page(1))
	if _, err := s.Open(0x1000, 4, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("stale version accepted: %v", err)
	}
}

func TestOpenRejectsWrongAddress(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	blob, _ := s.Seal(0x1000, 1, page(1))
	if _, err := s.Open(0x2000, 1, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("relocated blob accepted: %v", err)
	}
}

func TestOpenRejectsCrossEnclaveBlob(t *testing.T) {
	s1, _ := NewSealer(secret, 1)
	s2, _ := NewSealer(secret, 2)
	blob, _ := s1.Seal(0x1000, 1, page(1))
	if _, err := s2.Open(0x1000, 1, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("cross-enclave blob accepted: %v", err)
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	blob, _ := s.Seal(0x1000, 1, page(1))
	blob.Ciphertext[10] ^= 1
	if _, err := s.Open(0x1000, 1, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered blob accepted: %v", err)
	}
}

func TestSealerKeysDifferPerEnclave(t *testing.T) {
	s1, _ := NewSealer(secret, 1)
	s2, _ := NewSealer(secret, 2)
	p := page(7)
	b1, _ := s1.Seal(0x1000, 1, p)
	b2, _ := s2.Seal(0x1000, 1, p)
	if bytes.Equal(b1.Ciphertext, b2.Ciphertext) {
		t.Fatal("two enclaves produced identical ciphertexts")
	}
}

func TestStorePutGetDelete(t *testing.T) {
	st := NewStore()
	b := Blob{Ciphertext: []byte{1, 2, 3}, Version: 1}
	st.Put(1, 0x1000, b)
	got, err := st.Get(1, 0x1000)
	if err != nil || got.Version != 1 {
		t.Fatalf("get: %v %v", got, err)
	}
	if _, err := st.Get(1, 0x2000); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing blob: %v", err)
	}
	if _, err := st.Get(2, 0x1000); !errors.Is(err, ErrNotFound) {
		t.Fatal("blob visible across enclaves")
	}
	st.Delete(1, 0x1000)
	if _, err := st.Get(1, 0x1000); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete failed")
	}
}

func TestStoreLen(t *testing.T) {
	st := NewStore()
	st.Put(1, 0x1000, Blob{})
	st.Put(1, 0x2000, Blob{})
	st.Put(1, 0x1000, Blob{}) // overwrite
	if st.Len() != 2 {
		t.Fatalf("Len = %d", st.Len())
	}
}

// TestStoreReplayAttackDetected rolls a page back the way the host does:
// it keeps the page's first blob in an Archive and puts it back over a
// newer one. The trusted side must refuse it.
func TestStoreReplayAttackDetected(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	st := NewStore()
	var arc Archive
	evict := func(b Blob) {
		arc.Record(1, 0x1000, b)
		st.Put(1, 0x1000, b)
	}
	replay := func() bool {
		old, ok := arc.Oldest(1, 0x1000)
		if ok {
			st.Put(1, 0x1000, old)
		}
		return ok
	}
	v1, _ := s.Seal(0x1000, 1, page(1))
	v2, _ := s.Seal(0x1000, 2, page(2))
	evict(v1)
	evict(v2)
	if !replay() {
		t.Fatal("replay found no history")
	}
	blob, _ := st.Get(1, 0x1000)
	// The trusted side expects version 2; the replayed v1 must fail.
	if _, err := s.Open(0x1000, 2, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("replayed blob accepted: %v", err)
	}

	// Retention is bounded by distinct pages, not evictions: after ~10k
	// evictions of the same page the archive still holds one blob for it,
	// and that blob is still the v1 a rollback needs.
	const evictions = 10_000
	for v := uint64(3); v <= evictions; v++ {
		b, _ := s.Seal(0x1000, v, page(byte(v)))
		evict(b)
	}
	if n := arc.Len(); n != 1 {
		t.Fatalf("archive holds %d blobs after %d evictions of one page, want 1", n, evictions)
	}
	if !replay() {
		t.Fatal("replay found no history after repeated evictions")
	}
	blob, _ = st.Get(1, 0x1000)
	if !bytes.Equal(blob.Ciphertext, v1.Ciphertext) || blob.Version != 1 {
		t.Fatalf("replay swapped in version %d, want the v1 blob", blob.Version)
	}
	if _, err := s.Open(0x1000, evictions, blob); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("replayed v1 at version %d = %v, want ErrStaleVersion", evictions, err)
	}
}

func TestStoreReplayWithoutHistory(t *testing.T) {
	var arc Archive
	arc.Record(1, 0x1000, Blob{Ciphertext: []byte{1}})
	if _, ok := arc.Oldest(1, 0x1000); ok {
		t.Fatal("an archive with one blob for the page offered it as stale")
	}
}

func TestStoreCorrupt(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	st := NewStore()
	blob, _ := s.Seal(0x1000, 1, page(3))
	st.Put(1, 0x1000, blob)
	if !st.Corrupt(1, 0x1000) {
		t.Fatal("corrupt failed")
	}
	got, _ := st.Get(1, 0x1000)
	if _, err := s.Open(0x1000, 1, got); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted blob accepted: %v", err)
	}
	if st.Corrupt(1, 0x9000) {
		t.Fatal("corrupted a missing blob")
	}
}

// TestOpenDistinguishesFailureModes locks the refined unseal taxonomy on
// both sealing paths: each attack class yields its own sentinel, every
// sentinel wraps ErrIntegrity (so security decisions never depend on the
// refinement), and the refinements never match each other.
func TestOpenDistinguishesFailureModes(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	other, _ := NewSealer(secret, 2)
	good, _ := s.Seal(0x1000, 2, page(0xaa))

	truncated := good
	truncated.Ciphertext = good.Ciphertext[:8]

	flipped := good
	flipped.Ciphertext = append([]byte(nil), good.Ciphertext...)
	flipped.Ciphertext[0] ^= 0xff

	// Longer than SealedLen: not page-shaped, so both paths hand it to
	// crypto/cipher, which reads its last 16 bytes as the tag.
	extended := good
	extended.Ciphertext = append(good.Ciphertext[:len(good.Ciphertext):len(good.Ciphertext)], 0)

	stale, _ := s.Seal(0x1000, 1, page(0xaa)) // opened expecting version 2

	foreign, _ := other.Seal(0x1000, 2, page(0xaa))

	cases := []struct {
		name string
		blob Blob
		want error
	}{
		{"truncated", truncated, ErrTruncated},
		{"bit-flipped", flipped, ErrIntegrity},
		{"extended", extended, ErrIntegrity},
		{"replayed stale version", stale, ErrStaleVersion},
		{"wrong enclave", foreign, ErrWrongEnclave},
	}
	refinements := []error{ErrTruncated, ErrStaleVersion, ErrWrongEnclave}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachPath(t, func(path string) {
				_, err := s.Open(0x1000, 2, tc.blob)
				if err == nil {
					t.Fatalf("%s: attacked blob unsealed", path)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("%s: error %v, want %v", path, err, tc.want)
				}
				if !errors.Is(err, ErrIntegrity) {
					t.Fatalf("%s: error %v does not wrap ErrIntegrity", path, err)
				}
				// No refinement may claim an attack it did not diagnose.
				for _, ref := range refinements {
					if ref != tc.want && errors.Is(err, ref) {
						t.Fatalf("%s: error %v also matches unrelated %v", path, err, ref)
					}
				}
			})
		})
	}
}

func TestSealOpenProperty(t *testing.T) {
	s, _ := NewSealer(secret, 9)
	if err := quick.Check(func(vpn uint16, version uint64, fill byte) bool {
		va := mmu.PageOf(uint64(vpn))
		blob, err := s.Seal(va, version, page(fill))
		if err != nil {
			return false
		}
		got, err := s.Open(va, version, blob)
		return err == nil && bytes.Equal(got, page(fill))
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
