package autarky

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// Cross-machine restore: a checkpoint is a portable recovery point, not a
// same-machine convenience. These tests carry one across machines with
// different EPC geometry and cost models, re-home it after the source
// enclave was retired, and pin down the failure taxonomy — a retired handle
// answers ErrMigrated, a mangled blob answers ErrBadCheckpoint, and the two
// never blur.

const crossRounds = 10

// crossStep advances the deterministic churn workload up to `rounds` more
// rounds; the cursor lives in heap page 0 so a restored incarnation resumes
// exactly where the checkpoint left it (same scheme as the round-trip test).
func crossStep(heap []VAddr, rounds int) func(*Context) {
	mix := func(words ...uint64) uint64 {
		h := uint64(0x9e3779b97f4a7c15)
		for _, w := range words {
			h ^= w
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 31
		}
		return h
	}
	return func(ctx *Context) {
		var buf [8]byte
		ctx.Read(heap[0], buf[:])
		cursor := binary.LittleEndian.Uint64(buf[:])
		var tok [8]byte
		for n := 0; n < rounds && cursor < crossRounds; n++ {
			idx := 1 + mix(cursor)%uint64(len(heap)-1)
			binary.LittleEndian.PutUint64(tok[:], mix(cursor, idx))
			ctx.Write(heap[idx], tok[:])
			cursor++
			ctx.Progress(1)
		}
		binary.LittleEndian.PutUint64(buf[:], cursor)
		ctx.Write(heap[0], buf[:])
	}
}

func crossDump(t *testing.T, p *Proc) []byte {
	t.Helper()
	heap := p.Heap.PageVAs()
	var out []byte
	if err := p.Run(func(ctx *Context) {
		buf := make([]byte, PageSize)
		for _, va := range heap {
			ctx.Read(va, buf)
			out = append(out, buf...)
		}
	}); err != nil {
		t.Fatalf("dump: %v", err)
	}
	return out
}

// TestRestoreOntoDifferentMachineGeometry: a checkpoint captured on one
// machine restores onto another with a smaller EPC, a different TLB shape
// and a slower crypto cost model — and the workload still converges to the
// byte-exact memory of an uninterrupted run. Only cycle counts may differ
// across machines; contents may not.
func TestRestoreOntoDifferentMachineGeometry(t *testing.T) {
	img := churnImage(16)
	cfg := churnConfig()

	// Reference: uninterrupted on the source geometry.
	ma := NewMachine(WithEPCFrames(512))
	pa, err := ma.Spawn(img, cfg)
	if err != nil {
		t.Fatalf("spawn reference: %v", err)
	}
	if err := pa.Run(crossStep(pa.Heap.PageVAs(), crossRounds)); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := crossDump(t, pa)

	// Source: half the work, then a checkpoint.
	mb := NewMachine(WithEPCFrames(512))
	pb, err := mb.Spawn(img, cfg)
	if err != nil {
		t.Fatalf("spawn source: %v", err)
	}
	if err := pb.Run(crossStep(pb.Heap.PageVAs(), crossRounds/2)); err != nil {
		t.Fatalf("first half: %v", err)
	}
	cp, err := pb.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Destination: tight EPC, small TLB, double-cost software crypto.
	slow := DefaultCosts()
	slow.SWEncryptPage *= 2
	slow.SWDecryptPage *= 2
	mc := NewMachine(WithEPCFrames(96), WithTLBGeometry(8, 2), WithCosts(slow))
	pc, err := mc.Restore(cp)
	if err != nil {
		t.Fatalf("restore across geometry: %v", err)
	}
	if err := pc.Run(crossStep(pc.Heap.PageVAs(), crossRounds)); err != nil {
		t.Fatalf("second half on destination: %v", err)
	}
	if got := crossDump(t, pc); !bytes.Equal(got, want) {
		t.Fatal("cross-machine restore diverged from the uninterrupted run")
	}
	snap := mc.Metrics()
	if counter(t, snap, "restore.restores") != 1 {
		t.Fatalf("destination restores = %d, want 1", counter(t, snap, "restore.restores"))
	}
	if counter(t, snap, "restore.cycles") == 0 {
		t.Fatal("restore cost zero cycles on the destination")
	}
}

// TestRestoreAfterRetireEnclave: retiring the source enclave (the migration
// seal) does not invalidate an earlier checkpoint — restore succeeds as a
// fresh identity on the same machine, while the retired handle itself
// answers ErrMigrated to everything.
func TestRestoreAfterRetireEnclave(t *testing.T) {
	img := churnImage(16)
	cfg := churnConfig()

	m := NewMachine(WithEPCFrames(512))
	p, err := m.Spawn(img, cfg)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if err := p.Run(crossStep(p.Heap.PageVAs(), crossRounds/2)); err != nil {
		t.Fatalf("first half: %v", err)
	}
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := p.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}

	// The retired handle is dead in the ErrMigrated sense — specifically
	// not in the bad-checkpoint sense.
	err = p.Run(crossStep(p.Heap.PageVAs(), 1))
	if !errors.Is(err, ErrMigrated) {
		t.Fatalf("run on retired handle: %v, want ErrMigrated", err)
	}
	if errors.Is(err, ErrBadCheckpoint) {
		t.Fatal("retired-handle error must not match ErrBadCheckpoint")
	}
	if _, err := p.Quiesce(); !errors.Is(err, ErrMigrated) {
		t.Fatalf("second quiesce: %v, want ErrMigrated", err)
	}

	// The checkpoint predating the retirement restores as a fresh identity
	// and finishes the job.
	pr, err := m.Restore(cp)
	if err != nil {
		t.Fatalf("restore after retire: %v", err)
	}
	if err := pr.Run(crossStep(pr.Heap.PageVAs(), crossRounds)); err != nil {
		t.Fatalf("second half: %v", err)
	}
	var cursor [8]byte
	if err := pr.Run(func(ctx *Context) { ctx.Read(pr.Heap.PageVAs()[0], cursor[:]) }); err != nil {
		t.Fatalf("cursor read: %v", err)
	}
	if got := binary.LittleEndian.Uint64(cursor[:]); got != crossRounds {
		t.Fatalf("restored workload stopped at round %d of %d", got, crossRounds)
	}
}

// TestRestoreErrorTaxonomy: a garbage blob is ErrBadCheckpoint (and only
// that), wherever it is presented.
func TestRestoreErrorTaxonomy(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	p, err := m.Spawn(churnImage(16), churnConfig())
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if err := p.Run(crossStep(p.Heap.PageVAs(), 2)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	for _, tc := range []struct {
		name string
		cp   *Checkpoint
	}{
		{"empty", &Checkpoint{}},
		{"truncated", &Checkpoint{Sealed: cp.Sealed[:len(cp.Sealed)/2]}},
		{"bitflip", func() *Checkpoint {
			b := append([]byte{}, cp.Sealed...)
			b[len(b)/3] ^= 0x40
			return &Checkpoint{Sealed: b}
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh destination machine each time: nothing occupies the
			// range, so the only possible complaint is about the blob.
			dst := NewMachine(WithEPCFrames(128))
			_, err := dst.Restore(tc.cp)
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("restore(%s): %v, want ErrBadCheckpoint", tc.name, err)
			}
			if errors.Is(err, ErrMigrated) {
				t.Fatal("bad-checkpoint error must not match ErrMigrated")
			}
		})
	}
}
