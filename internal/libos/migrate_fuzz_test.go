package libos

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/core"
	"autarky/internal/sgx"
)

// fuzzMigration builds one genuine migration envelope plus the CPU that
// sealed it (for sealing hostile-but-authentic payload variants), and
// reports the progress counter the adopted process must carry.
func fuzzMigration(f *testing.F) (*sgx.CPU, *Migration, uint64) {
	f.Helper()
	k := newKernel(2048)
	img, cfg := migImage()
	p, err := Load(k, img, cfg)
	if err != nil {
		f.Fatal(err)
	}
	err = p.Run(func(ctx *core.Context) {
		var buf [16]byte
		for i := 0; i < p.Heap.Pages; i++ {
			for j := range buf {
				buf[j] = byte(i + j)
			}
			ctx.Write(p.Heap.Page(i), buf[:])
			ctx.Progress(1)
		}
	})
	if err != nil {
		f.Fatal(err)
	}
	progress := p.Runtime.Progress()
	mig, err := p.Migrate()
	if err != nil {
		f.Fatal(err)
	}
	return k.CPU, mig, progress
}

// FuzzMigrate drives libos.Adopt with attacker-shaped migration envelopes.
// The envelope crosses the untrusted network between machines, so the
// decode path faces fully hostile input. Properties: Adopt never panics,
// refuses everything but the genuine bytes with the documented checkpoint
// sentinel, never leaks an EPC frame or a registration on a refused
// adoption — and on the genuine bytes yields a process carrying the
// captured progress counter.
func FuzzMigrate(f *testing.F) {
	sealer, good, wantProgress := fuzzMigration(f)
	src, cp := fuzzCheckpoint(f)
	sealHostile := func(epoch uint64, meas [32]byte, payload []byte) []byte {
		sealed, err := sealer.SealEnvelope(nil, sgx.UseMigration, epoch, meas, payload)
		if err != nil {
			f.Fatal(err)
		}
		return sealed
	}

	// Seed corpus: the genuine envelope plus one representative of each
	// refusal class the decoder documents.
	f.Add(good.Sealed)      // authentic
	f.Add([]byte{})         // empty
	f.Add(good.Sealed[:8])  // truncated below the nonce
	f.Add(good.Sealed[:30]) // truncated inside the header
	f.Add([]byte("not a sealed migration envelope"))
	corrupt := append([]byte(nil), good.Sealed...)
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt) // flipped ciphertext byte
	header := append([]byte(nil), good.Sealed...)
	header[12] ^= 0xFF
	f.Add(header) // tampered epoch in the authenticated header
	// Authentic seal, garbage payload: authentication passes, decode fails.
	f.Add(sealHostile(1, [32]byte{}, []byte("{ garbage")))
	// Authentic seal, hostile counts: a page count far past the ciphertext.
	huge := make([]byte, 64)
	for i := range huge {
		huge[i] = 0xFF
	}
	f.Add(sealHostile(1, [32]byte{}, huge))
	// Authentic seal, valid payload, wrong measurement: the rebuilt enclave
	// can never match.
	f.Add(sealHostile(1, [32]byte{0xBA, 0xD0}, src.encodeState(nil)))
	// Cross-use: a genuine checkpoint envelope is not a migration.
	f.Add(cp.Sealed)

	f.Fuzz(func(t *testing.T, sealed []byte) {
		k := newKernel(2048)
		before := k.CPU.EPC.FreeFrames()
		p, err := Adopt(k, &Migration{Sealed: sealed}, nil)
		if err != nil {
			if !errors.Is(err, sgx.ErrBadCheckpoint) {
				t.Fatalf("Adopt returned a non-checkpoint error: %v", err)
			}
			if got := k.CPU.EPC.FreeFrames(); got != before || k.ProcAt(DefaultBase) != nil {
				t.Fatalf("refused adoption leaked EPC frames: %d -> %d", before, got)
			}
			return
		}
		// Success means the envelope authenticated, decoded and matched the
		// rebuilt measurement: only the genuine bytes can do all three.
		if !bytes.Equal(sealed, good.Sealed) {
			t.Fatalf("forged migration adopted (%d bytes)", len(sealed))
		}
		if p == nil || p.Runtime.Progress() != wantProgress {
			t.Fatalf("adopted process lost state: %+v", p)
		}
	})
}
