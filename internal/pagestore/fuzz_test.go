package pagestore

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/mmu"
)

// FuzzUnseal drives Sealer.Open with attacker-shaped blobs. The security
// property under fuzz: Open never panics, never returns a non-integrity
// error, and only succeeds on the genuine (ciphertext, version, enclave)
// triple — in which case the plaintext must round-trip exactly — and the
// page kernel, where this CPU has it, answers exactly as crypto/cipher
// does. Run continuously via `make fuzz` (and for 10s in `make check`).
func FuzzUnseal(f *testing.F) {
	const (
		enclaveID = 42
		version   = 7
	)
	va := mmu.VAddr(0x5000)
	sealer, err := NewSealer([]byte("fuzz-root-secret"), enclaveID)
	if err != nil {
		f.Fatal(err)
	}
	plain := page(0x5A)
	good, err := sealer.Seal(va, version, plain)
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: the genuine blob plus one representative of each
	// documented failure refinement.
	f.Add(good.Ciphertext, uint64(version), uint64(enclaveID))     // authentic
	f.Add(good.Ciphertext[:8], uint64(version), uint64(enclaveID)) // truncated
	f.Add([]byte{}, uint64(version), uint64(enclaveID))            // empty
	f.Add(good.Ciphertext, uint64(version-1), uint64(enclaveID))   // stale advisory version
	f.Add(good.Ciphertext, uint64(version), uint64(enclaveID+1))   // foreign advisory enclave
	corrupt := append([]byte(nil), good.Ciphertext...)
	corrupt[0] ^= 0xFF
	f.Add(corrupt, uint64(version), uint64(enclaveID)) // flipped ciphertext byte

	// reuse persists across fuzz iterations so OpenAppend sees a dirty,
	// previously written dst on every call after the first — the buffer
	// reuse pattern of the paging hot path.
	var reuse []byte
	f.Fuzz(func(t *testing.T, ct []byte, advVersion, advEnclave uint64) {
		b := Blob{Ciphertext: ct, Version: advVersion, EnclaveID: advEnclave}
		out, err := sealer.Open(va, version, b)
		reused, reuseErr := sealer.OpenAppend(reuse[:0], va, version, b)
		if reused != nil {
			reuse = reused[:0]
		}
		if (err == nil) != (reuseErr == nil) {
			t.Fatalf("Open and dst-reusing OpenAppend disagree: %v vs %v", err, reuseErr)
		}
		if err == nil && !bytes.Equal(out, reused) {
			t.Fatal("dst-reusing OpenAppend produced different plaintext")
		}
		// The page kernel and crypto/cipher reach the same verdict, the
		// same sentinel, on every blob.
		var std []byte
		var stdErr error
		stdlibOnly(func() { std, stdErr = sealer.Open(va, version, b) })
		if err != stdErr || !bytes.Equal(out, std) {
			t.Fatalf("sealing paths disagree: %v vs crypto/cipher's %v", err, stdErr)
		}
		if err != nil {
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("Open returned a non-integrity error: %v", err)
			}
			return
		}
		// Success means the AEAD authenticated: only the genuine ciphertext
		// can do that, and the plaintext must be exactly what was sealed.
		if !bytes.Equal(ct, good.Ciphertext) {
			t.Fatalf("forged ciphertext authenticated (%d bytes)", len(ct))
		}
		if !bytes.Equal(out, plain) {
			t.Fatal("authentic blob opened to different plaintext")
		}
	})
}
