package sgx

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/mmu"
)

// TestEnvelopeRoundTrip: each use opens what it sealed, returning the
// clear header and the plaintext, and charges software crypto per covered
// page in both directions.
func TestEnvelopeRoundTrip(t *testing.T) {
	r := newRig(t)
	meas := [32]byte{1, 2, 3}
	payload := bytes.Repeat([]byte{0xA5}, mmu.PageSize+1) // two pages
	for _, use := range []SealUse{UseCheckpoint, UseMigration} {
		before := r.clock.Cycles()
		sealed, err := r.cpu.SealEnvelope(nil, use, 7, meas, payload)
		if err != nil {
			t.Fatalf("%s seal: %v", use, err)
		}
		if got, want := r.clock.Cycles()-before, 2*r.costs.SWEncryptPage; got != want {
			t.Errorf("%s seal charged %d cycles, want %d", use, got, want)
		}
		epoch, gotMeas, plain, err := r.cpu.OpenEnvelope(sealed, use)
		if err != nil {
			t.Fatalf("%s open: %v", use, err)
		}
		if epoch != 7 || gotMeas != meas || !bytes.Equal(plain, payload) {
			t.Fatalf("%s round trip: epoch %d meas %x, %d bytes", use, epoch, gotMeas[:4], len(plain))
		}
	}
}

// TestEnvelopeRefusals: truncation, tampering with any part of the
// envelope, and an envelope sealed for the other use all fail with
// ErrBadCheckpoint; an unknown use is refused outright.
func TestEnvelopeRefusals(t *testing.T) {
	r := newRig(t)
	sealed, err := r.cpu.SealEnvelope(nil, UseCheckpoint, 3, [32]byte{9}, []byte("state"))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), sealed...)
		b[i] ^= 0x01
		return b
	}
	cases := []struct {
		name   string
		sealed []byte
		use    SealUse
	}{
		{"truncated", sealed[:envelopeHeaderLen], UseCheckpoint},
		{"nonce", flip(0), UseCheckpoint},
		{"epoch", flip(12), UseCheckpoint},
		{"measurement", flip(20), UseCheckpoint},
		{"ciphertext", flip(len(sealed) - 1), UseCheckpoint},
		{"cross-use", sealed, UseMigration},
	}
	for _, tc := range cases {
		if _, _, _, err := r.cpu.OpenEnvelope(tc.sealed, tc.use); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: %v, want ErrBadCheckpoint", tc.name, err)
		}
	}
	if _, err := r.cpu.SealEnvelope(nil, numSealUses, 0, [32]byte{}, nil); err == nil {
		t.Error("sealed for an unknown use")
	}
	if _, _, _, err := r.cpu.OpenEnvelope(sealed, numSealUses); err == nil || errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("open for an unknown use: %v, want a non-checkpoint error", err)
	}
	if got := SealUse(9).String(); got != "SealUse(9)" {
		t.Errorf("unknown use names itself %q", got)
	}
}

// TestEnvelopeNoncesNeverRepeat: one counter numbers the envelopes of both
// uses on a CPU, and the platform's boot salt separates CPUs sharing a
// root secret — whose keys are therefore shared — so no two envelopes a
// fleet seals ever reuse a nonce under one key.
func TestEnvelopeNoncesNeverRepeat(t *testing.T) {
	a, b := newRig(t), newRig(t)
	seen := make(map[string]bool)
	for _, r := range []*testRig{a, b} {
		for _, use := range []SealUse{UseCheckpoint, UseMigration, UseCheckpoint} {
			sealed, err := r.cpu.SealEnvelope(nil, use, 0, [32]byte{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			nonce := string(sealed[:12])
			if seen[nonce] {
				t.Fatalf("nonce %x sealed twice", sealed[:12])
			}
			seen[nonce] = true
		}
	}
}

// TestSealEnvelopeZeroAlloc: with a warm key and a destination of enough
// capacity, sealing allocates nothing.
func TestSealEnvelopeZeroAlloc(t *testing.T) {
	r := newRig(t)
	payload := make([]byte, mmu.PageSize)
	dst := make([]byte, 0, 2*mmu.PageSize)
	seal := func() {
		var err error
		if dst, err = r.cpu.SealEnvelope(dst[:0], UseMigration, 1, [32]byte{}, payload); err != nil {
			t.Fatal(err)
		}
	}
	seal()
	if allocs := testing.AllocsPerRun(100, seal); allocs != 0 {
		t.Fatalf("SealEnvelope allocates %.1f/op, want 0", allocs)
	}
}

// TestCounterServiceFreshness: Verify admits only epochs strictly above the
// committed one (and never epoch 0) without advancing the counter; Commit
// advances it and refuses to move it backwards.
func TestCounterServiceFreshness(t *testing.T) {
	s := NewCounterService()
	meas := [32]byte{5}
	if err := s.Verify(meas, 0); !errors.Is(err, ErrStaleMigration) {
		t.Fatalf("epoch 0: %v, want ErrStaleMigration", err)
	}
	if err := s.Verify(meas, 1); err != nil {
		t.Fatalf("first epoch: %v", err)
	}
	if got := s.Committed(meas); got != 0 {
		t.Fatalf("Verify advanced the counter to %d", got)
	}
	s.Commit(meas, 1)
	if err := s.Verify(meas, 1); !errors.Is(err, ErrStaleMigration) {
		t.Fatalf("replayed epoch: %v, want ErrStaleMigration", err)
	}
	if err := s.Verify(meas, 2); err != nil {
		t.Fatalf("next epoch: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-monotonic Commit did not panic")
		}
	}()
	s.Commit(meas, 1)
}
