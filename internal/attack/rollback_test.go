package attack

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/mmu"
	"autarky/internal/pagestore"
)

// TestRollbackReplaysTheFirstBlob: the layer passes every operation through
// to its inner backend, keeps each page's first evicted blob, and a Replay
// writes that blob beneath itself, where the trusted side refuses it as
// stale.
func TestRollbackReplaysTheFirstBlob(t *testing.T) {
	const va = mmu.VAddr(0x1000)
	sealer, err := pagestore.NewSealer([]byte("rollback"), 1)
	if err != nil {
		t.Fatal(err)
	}
	store := pagestore.NewStore()
	r := NewRollback(store)
	if r.Name() != store.Name() {
		t.Fatalf("layer named %q, want its inner %q", r.Name(), store.Name())
	}
	plain := make([]byte, mmu.PageSize)
	evict := func(version uint64) pagestore.Blob {
		plain[0] = byte(version)
		b, err := sealer.Seal(va, version, plain)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Evict(1, va, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	v1 := evict(1)
	if r.Replay(1, va) {
		t.Fatal("replayed with no newer blob evicted")
	}
	if err := r.Drop(1, va); err != nil || store.Len() != 0 {
		t.Fatalf("Drop: %v, %d blobs left in the store", err, store.Len())
	}
	const evictions = 1000
	for v := uint64(2); v <= evictions; v++ {
		evict(v)
	}
	if n := r.archive.Len(); n != 1 {
		t.Fatalf("archive holds %d blobs after %d evictions of one page, want 1", n, evictions)
	}
	if !r.Replay(1, va) {
		t.Fatal("no archived blob to replay")
	}
	got, err := r.Fetch(1, va)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Ciphertext, v1.Ciphertext) || got.Version != 1 {
		t.Fatalf("store holds version %d after the replay, want the v1 blob", got.Version)
	}
	if _, err := sealer.Open(va, evictions, got); !errors.Is(err, pagestore.ErrStaleVersion) {
		t.Fatalf("replayed v1 at version %d = %v, want ErrStaleVersion", evictions, err)
	}
	// A corrupted store slot leaves the archive's copy intact.
	store.Corrupt(1, va)
	if !r.Replay(1, va) {
		t.Fatal("archive lost its blob")
	}
	if got, _ := r.Fetch(1, va); !bytes.Equal(got.Ciphertext, v1.Ciphertext) {
		t.Fatal("the corruption reached the archived blob")
	}
}
