package libos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
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

// versionedProcess loads the fuzz image, dirties its heap and has the
// kernel suspend and resume it twice, touching half the heap in between:
// every suspend writes the resident pages out through EWB, so the version
// table ends non-empty with versions 1 and 2, in the order the kernel's
// residency queue chose. Its writable pages are then captured, ready for
// encodeState.
func versionedProcess(tb testing.TB) *Process {
	tb.Helper()
	k := newKernel(2048)
	img, cfg := fuzzImage()
	p, err := Load(k, img, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	dirty := func(pages int) {
		err := p.Run(func(ctx *core.Context) {
			for i := 0; i < pages; i++ {
				ctx.Write(p.Heap.Page(i), []byte{byte(i + 1)})
			}
			ctx.Progress(1)
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	for _, pages := range []int{p.Heap.Pages, p.Heap.Pages / 2} {
		dirty(pages)
		if _, err := k.SuspendEnclave(p.Proc); err != nil {
			tb.Fatal(err)
		}
		if err := k.ResumeEnclave(p.Proc); err != nil {
			tb.Fatal(err)
		}
	}
	if err := p.Run(p.capture); err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestSealedStateRoundTrip: a process whose version table is non-empty
// encodes its versions in ascending page order, and restoring that
// encoding and encoding the restored process again gives the same bytes.
func TestSealedStateRoundTrip(t *testing.T) {
	p := versionedProcess(t)
	plain := p.encodeState(nil)
	e := p.Proc.E
	if len(p.stateVPNs) == 0 {
		t.Fatal("version table is empty; the round trip would not cover it")
	}
	twice := false
	for i, vpn := range p.stateVPNs {
		if i > 0 && vpn <= p.stateVPNs[i-1] {
			t.Fatalf("version table not in ascending page order: %#x after %#x", vpn, p.stateVPNs[i-1])
		}
		twice = twice || e.Version(mmu.PageOf(vpn)) == 2
	}
	if !twice {
		t.Fatal("no page was evicted twice; the table holds only one version")
	}
	payload, err := decodeState(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.Versions) != len(p.stateVPNs) {
		t.Fatalf("decoded %d versions, encoded %d", len(payload.Versions), len(p.stateVPNs))
	}

	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Restore(newKernel(2048), cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(q.capture); err != nil {
		t.Fatal(err)
	}
	if again := q.encodeState(nil); !bytes.Equal(again, plain) {
		t.Fatalf("restored state encodes to %d bytes that differ from the %d sealed", len(again), len(plain))
	}
}

// withVersions splices a version table of (vpn, version) pairs into plain,
// an encoding whose version table is empty and which carries pages
// captured pages.
func withVersions(tb testing.TB, plain []byte, pages int, pairs ...uint64) []byte {
	tb.Helper()
	at := len(plain) - (8 + pages*(16+mmu.PageSize)) - 8
	if n := binary.LittleEndian.Uint64(plain[at:]); n != 0 {
		tb.Fatalf("encoding already holds %d versions", n)
	}
	out := appendU64(append([]byte(nil), plain[:at]...), uint64(len(pairs)/2))
	for _, v := range pairs {
		out = appendU64(out, v)
	}
	return append(out, plain[at+8:]...)
}

// TestRestoreRefusesForeignVersions: an authentic payload whose version
// table names a page outside the ELRANGE its image spans, or holds a zero
// version, is refused with ErrBadCheckpoint and leaves nothing behind. No
// enclave keeps a counter for such a page, so accepting the entry would
// only carry it into every later checkpoint and migration envelope.
func TestRestoreRefusesForeignVersions(t *testing.T) {
	src, _ := fuzzCheckpoint(t)
	meas := src.Proc.E.Measurement()
	plain := src.encodeState(nil)
	first := DefaultBase.VPN()
	end := first + uint64(src.Proc.E.Size/mmu.PageSize)
	seal := func(pairs ...uint64) *Checkpoint {
		sealed, err := src.Kernel.CPU.SealEnvelope(nil, sgx.UseCheckpoint, 0, meas,
			withVersions(t, plain, len(src.stateVAs), pairs...))
		if err != nil {
			t.Fatal(err)
		}
		return &Checkpoint{Sealed: sealed}
	}
	for _, tc := range []struct {
		name  string
		pairs []uint64
	}{
		{"below base", []uint64{first - 1, 1}},
		{"past end", []uint64{end, 1}},
		{"far past end", []uint64{end + 1<<30, 1}},
		{"zero version", []uint64{first, 0}},
		{"one bad among good", []uint64{first, 3, first + 1, 3, end + 7, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKernel(2048)
			if _, err := Restore(k, seal(tc.pairs...)); !errors.Is(err, sgx.ErrBadCheckpoint) {
				t.Fatalf("Restore: %v, want ErrBadCheckpoint", err)
			}
			if k.ProcAt(DefaultBase) != nil || k.CPU.EPC.FreeFrames() != 2048 {
				t.Fatal("refused restore left an enclave behind")
			}
		})
	}
	// The splice itself is sound: versions for the first and last page of
	// the ELRANGE restore, and the next encoding carries them.
	p, err := Restore(newKernel(2048), seal(first, 5, end-1, 9))
	if err != nil {
		t.Fatalf("in-range versions: %v", err)
	}
	if got := p.Proc.E.VersionVPNs(nil); !slices.Equal(got, []uint64{first, end - 1}) {
		t.Fatalf("restored version table %#x, want [%#x %#x]", got, first, end-1)
	}
}

// hostileConfigs are sealed configurations Load would refuse, among them a
// base from which the image's ELRANGE wraps the address space.
var hostileConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"unaligned base", func(c *Config) { c.Base = DefaultBase + 0x10 }},
	{"unknown policy", func(c *Config) { c.Policy = PolicyORAM + 1 }},
	{"negative quota", func(c *Config) { c.QuotaPages = -1 }},
	{"wrapping base", func(c *Config) { c.Base = 0xffff_ffff_ffff_f000 }},
}

// withConfig encodes p's state as if it ran under its configuration
// changed by mutate.
func withConfig(p *Process, mutate func(*Config)) []byte {
	saved := p.cfg
	defer func() { p.cfg = saved }()
	mutate(&p.cfg)
	return p.encodeState(nil)
}

// TestRestoreRefusesHostileConfig: an authentic payload whose configuration
// Load would refuse is refused with ErrBadCheckpoint before the incarnation
// at its base is torn down.
func TestRestoreRefusesHostileConfig(t *testing.T) {
	src, _ := fuzzCheckpoint(t)
	meas := src.Proc.E.Measurement()
	k := src.Kernel
	free := k.CPU.EPC.FreeFrames()
	for _, tc := range hostileConfigs {
		t.Run(tc.name, func(t *testing.T) {
			sealed, err := k.CPU.SealEnvelope(nil, sgx.UseCheckpoint, 0, meas, withConfig(src, tc.mutate))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Restore(k, &Checkpoint{Sealed: sealed}); !errors.Is(err, sgx.ErrBadCheckpoint) {
				t.Fatalf("Restore: %v, want ErrBadCheckpoint", err)
			}
			if k.ProcAt(DefaultBase) != src.Proc || k.CPU.EPC.FreeFrames() != free {
				t.Fatal("refused restore tore down the incarnation at the base")
			}
		})
	}
}

// BenchmarkSealVersionTable measures encode+seal of a process whose
// version table is non-empty (versionedProcess) into warm scratch: the
// checkpoint path that walks the version table. allocs/op must read 0.
func BenchmarkSealVersionTable(b *testing.B) {
	p := versionedProcess(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.seal(sgx.UseCheckpoint, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFirstCheckpointAllocsIndependentOfSize: a fresh process's first
// checkpoint grows each of its buffers (the captured pages and their
// addresses, the payload, the envelope) once, to its final size, so the
// number of allocations it makes does not grow with the image's page count.
func TestFirstCheckpointAllocsIndependentOfSize(t *testing.T) {
	firstCheckpoint := func(heapPages int) uint64 {
		img := AppImage{
			Name:      "sized",
			Libraries: []Library{{Name: "libsized.so", Pages: 2}},
			DataPages: 4,
			HeapPages: heapPages,
		}
		p := load(t, img, Config{})
		// A collection mid-measurement would empty the runtime's pools.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.Gosched()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := p.sealState(sgx.UseCheckpoint, p.Proc.E.MigrationEpoch()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	small, large := firstCheckpoint(16), firstCheckpoint(64)
	if large > small {
		t.Errorf("first checkpoint allocates %d times at 16 heap pages, %d at 64; want no growth", small, large)
	}
}
