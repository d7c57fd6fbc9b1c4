package libos

import (
	"bytes"
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/sgx"
)

// TestRestoreCarriesMigrationEpoch: the checkpoint envelope carries the
// migration epoch under its seal, so a tenant that migrated, was
// checkpointed and restored elsewhere can migrate again against the same
// counter service. A restore that reset the epoch would seal epoch 1 a
// second time and the second adopt would be refused as stale.
func TestRestoreCarriesMigrationEpoch(t *testing.T) {
	counters := sgx.NewCounterService()
	a := runMigrant(t, newKernel(2048))
	wantProgress := a.Runtime.Progress()
	mig, err := a.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Adopt(newKernel(2048), mig, counters)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	c, err := Restore(newKernel(2048), cp)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := c.Proc.E.MigrationEpoch(); got != 1 {
		t.Errorf("restored migration epoch %d, want 1", got)
	}
	mig2, err := c.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Adopt(newKernel(2048), mig2, counters)
	if err != nil {
		t.Fatalf("second adopt: %v", err)
	}
	if got := counters.Committed(d.Proc.E.Measurement()); got != 2 {
		t.Errorf("committed epoch %d after the second adopt, want 2", got)
	}
	if got := d.Runtime.Progress(); got != wantProgress {
		t.Errorf("progress %d after migrate/restore/migrate, want %d", got, wantProgress)
	}
}

// TestCheckpointNoncesDifferAcrossMachines: machines derived from one root
// secret share the checkpoint key, so each machine's first checkpoint must
// still seal under its own nonce. AES-GCM under a repeated nonce loses both
// secrecy and integrity.
func TestCheckpointNoncesDifferAcrossMachines(t *testing.T) {
	var nonces [2][]byte
	for i := range nonces {
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
		nonces[i] = cp.Sealed[:12]
	}
	if bytes.Equal(nonces[0], nonces[1]) {
		t.Fatalf("two machines sealed their first checkpoints under one nonce %x", nonces[0])
	}
}

// preemptHook plays the scheduler's upcall on a preemption-timer AEX.
type preemptHook func(k *hostos.Kernel, p *hostos.Proc)

func (h preemptHook) OnPreempt(k *hostos.Kernel, p *hostos.Proc) { h(k, p) }

// sealedPages opens a checkpoint and counts the pages it carries.
func sealedPages(t *testing.T, k *hostos.Kernel, cp *Checkpoint) int {
	t.Helper()
	_, _, plain, err := k.CPU.OpenEnvelope(cp.Sealed, sgx.UseCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := decodeState(plain)
	if err != nil {
		t.Fatal(err)
	}
	return len(payload.Pages)
}

// TestParkedCheckpointSealsNoStalePages guards the reused capture buffers.
// A checkpoint before the first dispatch captures every writable page. A
// checkpoint taken while the thread is parked mid-slice (CSSA 1, as the
// fleet's cadence finds its tenants) enters the enclave as a spurious
// exception entry and skips the capture. That envelope must carry exactly
// what was captured — nothing — not the pages the first capture left in
// the buffers, and CntCheckpointPages must rise by the same count.
func TestParkedCheckpointSealsNoStalePages(t *testing.T) {
	k := newKernel(2048)
	img, cfg := migImage()
	p, err := Load(k, img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.Of(k.Clock)

	first, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	all := p.Data.Pages + p.Heap.Pages + p.Stack.Pages
	captured := m.Count(metrics.CntCheckpointPages)
	if n := sealedPages(t, k, first); n != all || captured != uint64(all) {
		t.Fatalf("first checkpoint sealed %d pages and counted %d, want %d", n, captured, all)
	}

	var parked *Checkpoint
	k.Preemptor = preemptHook(func(k *hostos.Kernel, proc *hostos.Proc) {
		k.Preemptor = nil
		saved := k.CPU.SwapContext(sgx.ExecContext{})
		defer k.CPU.SwapContext(saved)
		if cssa := proc.TCS.CSSA(); cssa != 1 {
			t.Errorf("parked thread at CSSA %d, want 1", cssa)
		}
		parked, err = p.Checkpoint()
	})
	k.CPU.PreemptAt = k.Clock.Cycles() + 1
	runErr := p.Run(func(ctx *core.Context) {
		var buf [8]byte
		ctx.Read(p.Heap.Page(0), buf[:])
	})
	if runErr != nil || err != nil || parked == nil {
		t.Fatalf("parked checkpoint: run %v, checkpoint %v", runErr, err)
	}
	if n := sealedPages(t, k, parked); n != 0 {
		t.Errorf("parked checkpoint sealed %d stale pages, want 0", n)
	}
	if got := m.Count(metrics.CntCheckpointPages); got != captured {
		t.Errorf("CntCheckpointPages %d after the parked checkpoint, want %d", got, captured)
	}
}
