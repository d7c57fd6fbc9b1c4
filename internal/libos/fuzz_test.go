package libos

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
)

// fuzzImage is the small enclave every FuzzRestore iteration rebuilds.
func fuzzImage() (AppImage, Config) {
	img := AppImage{
		Name:      "fuzz",
		Libraries: []Library{{Name: "libfuzz.so", Pages: 1}},
		HeapPages: 4,
	}
	return img, Config{}
}

// fuzzCheckpoint builds one genuine sealed checkpoint, plus the process it
// was taken from (for sealing hostile-but-authentic payload variants).
// Every machine newKernel builds shares one root secret, so blobs
// sealed here authenticate on the fresh machine each fuzz iteration builds.
func fuzzCheckpoint(tb testing.TB) (*Process, *Checkpoint) {
	tb.Helper()
	img, cfg := fuzzImage()
	p, err := Load(newKernel(2048), img, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	err = p.Run(func(ctx *core.Context) {
		var buf [8]byte
		ctx.Write(p.Heap.Page(0), buf[:])
		ctx.Progress(3)
	})
	if err != nil {
		tb.Fatal(err)
	}
	cp, err := p.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return p, cp
}

// FuzzRestore drives libos.Restore with attacker-shaped checkpoint blobs.
// The OS holds checkpoints at rest, so the decode path faces fully hostile
// input. The property under fuzz mirrors FuzzUnseal one layer up: Restore
// never panics, never returns anything but the documented sentinel on a
// bad blob, leaves no enclave and no EPC frame behind when it refuses, and
// only succeeds on the genuine sealed bytes — in which case the restored
// process must carry the captured progress counter.
func FuzzRestore(f *testing.F) {
	src, good := fuzzCheckpoint(f)
	meas := src.Proc.E.Measurement()
	sealHostile := func(meas [32]byte, payload []byte) []byte {
		sealed, err := src.Kernel.CPU.SealEnvelope(nil, sgx.UseCheckpoint, 0, meas, payload)
		if err != nil {
			f.Fatal(err)
		}
		return sealed
	}

	// Seed corpus: the genuine blob plus one representative of each
	// documented failure refinement.
	f.Add(good.Sealed)     // authentic
	f.Add(good.Sealed[:8]) // truncated below any checkpoint
	f.Add([]byte{})        // empty
	f.Add([]byte("not a sealed blob at all"))
	corrupt := append([]byte(nil), good.Sealed...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt) // flipped ciphertext byte
	header := append([]byte(nil), good.Sealed...)
	header[12] ^= 0xFF
	f.Add(header) // tampered epoch in the authenticated header
	// Authentic seal, garbage payload: authentication passes, decode fails.
	f.Add(sealHostile(meas, []byte("{ not a payload")))
	// Authentic seal, hostile counts: an image-name length far past the
	// payload must be refused before it sizes anything.
	f.Add(sealHostile(meas, appendU64(appendU64(nil, stateFormatVersion), 1<<40)))
	// Authentic seal, well-formed payload, hostile shape: negative region.
	heap := src.Image.HeapPages
	src.Image.HeapPages = -4
	f.Add(sealHostile(meas, src.encodeState(nil)))
	src.Image.HeapPages = heap
	// Authentic seal, well-formed payload, a version table naming a page
	// far outside the image's ELRANGE, and one holding a zero version.
	end := DefaultBase.VPN() + src.Proc.E.Size/mmu.PageSize
	f.Add(sealHostile(meas, withVersions(f, src.encodeState(nil), len(src.stateVAs), end+1<<30, 1)))
	f.Add(sealHostile(meas, withVersions(f, src.encodeState(nil), len(src.stateVAs), DefaultBase.VPN(), 0)))
	// Authentic seal, well-formed payload, a configuration Load refuses.
	for _, tc := range hostileConfigs {
		f.Add(sealHostile(meas, withConfig(src, tc.mutate)))
	}
	// Authentic seal, valid payload, wrong measurement in the header: the
	// restored enclave can never match.
	f.Add(sealHostile([32]byte{0xBA, 0xD0}, src.encodeState(nil)))
	// Cross-use: a genuine migration envelope is not a checkpoint.
	_, mig, _ := fuzzMigration(f)
	f.Add(mig.Sealed)

	f.Fuzz(func(t *testing.T, sealed []byte) {
		k := newKernel(2048)
		before := k.CPU.EPC.FreeFrames()
		p, err := Restore(k, &Checkpoint{Sealed: sealed})
		if err != nil {
			if !errors.Is(err, sgx.ErrBadCheckpoint) {
				t.Fatalf("Restore returned a non-checkpoint error: %v", err)
			}
			if got := k.CPU.EPC.FreeFrames(); got != before || k.ProcAt(DefaultBase) != nil {
				t.Fatalf("refused restore left an enclave registered (free frames %d -> %d)", before, got)
			}
			return
		}
		// Success means the platform seal authenticated and the payload
		// validated: only the genuine blob can do both.
		if !bytes.Equal(sealed, good.Sealed) {
			t.Fatalf("forged checkpoint restored (%d bytes)", len(sealed))
		}
		if p == nil || p.Runtime.Progress() != 3 {
			t.Fatalf("restored process lost state: %+v", p)
		}
	})
}

// TestRefusedRestoreUnwindsRebuild: a restore refused after its rebuild
// loaded the enclave — a genuine payload sealed under a wrong measurement —
// leaves nothing registered and every EPC frame free, so the genuine
// checkpoint still restores at the same base afterwards.
func TestRefusedRestoreUnwindsRebuild(t *testing.T) {
	src, good := fuzzCheckpoint(t)
	bad, err := src.Kernel.CPU.SealEnvelope(nil, sgx.UseCheckpoint, 0, [32]byte{0xBA, 0xD0}, src.encodeState(nil))
	if err != nil {
		t.Fatal(err)
	}
	k := newKernel(2048)
	if _, err := Restore(k, &Checkpoint{Sealed: bad}); !errors.Is(err, sgx.ErrBadCheckpoint) {
		t.Fatalf("restore under a wrong measurement: %v, want ErrBadCheckpoint", err)
	}
	if left, free := k.ProcAt(DefaultBase) != nil, k.CPU.EPC.FreeFrames(); left || free != 2048 {
		t.Fatalf("refused restore left an enclave registered: %v, %d of 2048 frames free", left, free)
	}
	p, err := Restore(k, good)
	if err != nil {
		t.Fatalf("genuine restore after a refused one: %v", err)
	}
	if p.Runtime.Progress() != 3 {
		t.Fatalf("restored progress %d, want 3", p.Runtime.Progress())
	}
}

// TestRestoreOntoLiveProcess: a checkpoint must not let the OS replace a
// live incarnation — Restore refuses with the kernel's liveness sentinel
// and the running process is untouched.
func TestRestoreOntoLiveProcess(t *testing.T) {
	k := newKernel(2048)
	img, cfg := fuzzImage()
	p, err := Load(k, img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(k, cp); !errors.Is(err, hostos.ErrEnclaveLive) {
		t.Fatalf("Restore onto a live process: %v, want ErrEnclaveLive", err)
	}
	// The live incarnation still runs.
	if err := p.Run(func(ctx *core.Context) { ctx.Progress(1) }); err != nil {
		t.Fatalf("live process damaged by refused restore: %v", err)
	}
}
