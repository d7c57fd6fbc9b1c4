package libos

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/sgx"
)

// migImage is a self-paging workload whose heap exceeds its quota, so the
// captured state includes live anti-replay versions (evicted pages), the
// hard part of the handoff.
func migImage() (AppImage, Config) {
	img := AppImage{
		Name:      "migrant",
		Libraries: []Library{{Name: "libmig.so", Pages: 2}},
		DataPages: 4,
		HeapPages: 32,
	}
	cfg := Config{
		SelfPaging:           true,
		Policy:               PolicyRateLimit,
		RateLimitPerProgress: 1000,
		RateLimitBurst:       1000,
		QuotaPages:           24,
	}
	return img, cfg
}

// runMigrant loads the image and dirties every heap page with a
// recognizable pattern, advancing the progress counter as it goes.
func runMigrant(t testing.TB, k *hostos.Kernel) *Process {
	t.Helper()
	img, cfg := migImage()
	p, err := Load(k, img, cfg)
	if err != nil {
		t.Fatalf("Load: %v", err)
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
		t.Fatalf("workload: %v", err)
	}
	return p
}

// TestMigrateAdoptRoundTrip is the tentpole's core property: a process
// migrated off one machine resumes on a machine with different EPC geometry
// and cost model carrying its exact writable state, progress counter and
// freshness epoch, while the source incarnation is permanently retired.
func TestMigrateAdoptRoundTrip(t *testing.T) {
	k1 := newKernel(2048)
	p1 := runMigrant(t, k1)
	wantProgress := p1.Runtime.Progress()

	counters := sgx.NewCounterService()
	mig, err := p1.Migrate()
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if len(mig.Sealed) == 0 {
		t.Fatal("empty envelope from a successful Migrate")
	}

	// The source incarnation must be gone: dead with the migration reason,
	// tombstoned in its kernel.
	if dead, reason, _ := p1.Proc.E.Dead(); !dead || reason != sgx.TerminateMigrated {
		t.Fatalf("source enclave dead=%v reason=%v, want retired as migrated", dead, reason)
	}
	if err := p1.Run(func(*core.Context) {}); !errors.Is(err, hostos.ErrMigrated) {
		t.Fatalf("running the migrated-away source: %v, want ErrMigrated", err)
	}
	if !errors.Is(p1.Run(func(*core.Context) {}), hostos.ErrNotLoaded) {
		t.Fatal("ErrMigrated must refine ErrNotLoaded for existing callers")
	}

	// Destination: smaller EPC, pricier software crypto — a genuinely
	// different machine.
	k2 := newKernel(512)
	k2.Costs.SWEncryptPage *= 2
	k2.Costs.SWDecryptPage *= 2
	p2, err := Adopt(k2, mig, counters)
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if got := p2.Runtime.Progress(); got != wantProgress {
		t.Fatalf("adopted progress %d, want %d", got, wantProgress)
	}
	if got := p2.Proc.E.MigrationEpoch(); got != 1 {
		t.Fatalf("adopted migration epoch %d, want 1", got)
	}
	if got := counters.Committed(p2.Proc.E.Measurement()); got != 1 {
		t.Fatalf("committed counter %d, want 1", got)
	}

	// Every dirtied page made the journey byte-for-byte.
	err = p2.Run(func(ctx *core.Context) {
		var got, want [16]byte
		for i := 0; i < p2.Heap.Pages; i++ {
			for j := range want {
				want[j] = byte(i + j)
			}
			ctx.Read(p2.Heap.Page(i), got[:])
			if !bytes.Equal(got[:], want[:]) {
				t.Errorf("heap page %d: got %x want %x", i, got, want)
				return
			}
		}
	})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}

	m1, m2 := metrics.Of(k1.Clock), metrics.Of(k2.Clock)
	if m1.Count(metrics.CntMigrations) != 1 || m1.Count(metrics.CntMigrationPages) == 0 {
		t.Fatal("source migration counters not recorded")
	}
	if m2.Count(metrics.CntAdopts) != 1 {
		t.Fatal("destination adopt counter not recorded")
	}
}

// TestMigrateChain verifies the freshness epoch advances across repeated
// hops: machine A -> B -> C, each adopt strictly newer than the last.
func TestMigrateChain(t *testing.T) {
	counters := sgx.NewCounterService()
	k := newKernel(2048)
	p := runMigrant(t, k)
	for hop := 1; hop <= 3; hop++ {
		mig, err := p.Migrate()
		if err != nil {
			t.Fatalf("hop %d Migrate: %v", hop, err)
		}
		k = newKernel(2048 - 256*hop)
		p, err = Adopt(k, mig, counters)
		if err != nil {
			t.Fatalf("hop %d Adopt: %v", hop, err)
		}
		if got := p.Proc.E.MigrationEpoch(); got != uint64(hop) {
			t.Fatalf("hop %d: epoch %d", hop, got)
		}
	}
}

// TestMigrationMisuse is the migration analogue of the hostos out-of-order
// suite: every way of driving the handshake out of protocol hits its
// documented sentinel, and the adopt-side failures consume no EPC frames.
func TestMigrationMisuse(t *testing.T) {
	// One genuine envelope to mutate, plus its (consumed) counter service.
	src := runMigrant(t, newKernel(2048))
	mig, err := src.Migrate()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		want error
		run  func(t *testing.T) error
	}{
		{"quiesce-twice", hostos.ErrMigrated, func(t *testing.T) error {
			p := runMigrant(t, newKernel(2048))
			if _, err := p.Migrate(); err != nil {
				t.Fatal(err)
			}
			_, err := p.Migrate()
			return err
		}},
		{"adopt-stale-counter", sgx.ErrStaleMigration, func(t *testing.T) error {
			counters := sgx.NewCounterService()
			if _, err := Adopt(newKernel(2048), mig, counters); err != nil {
				t.Fatal(err)
			}
			// Same envelope, second machine, same counter service: replay.
			_, err := Adopt(newKernel(2048), mig, counters)
			return err
		}},
		{"adopt-while-running", hostos.ErrEnclaveLive, func(t *testing.T) error {
			k := newKernel(2048)
			runMigrant(t, k) // live enclave at the same base
			_, err := Adopt(k, mig, sgx.NewCounterService())
			return err
		}},
		{"adopt-nil", sgx.ErrBadCheckpoint, func(t *testing.T) error {
			_, err := Adopt(newKernel(2048), nil, sgx.NewCounterService())
			return err
		}},
		{"adopt-empty", sgx.ErrBadCheckpoint, func(t *testing.T) error {
			_, err := Adopt(newKernel(2048), &Migration{}, sgx.NewCounterService())
			return err
		}},
		{"adopt-truncated", sgx.ErrBadCheckpoint, func(t *testing.T) error {
			_, err := Adopt(newKernel(2048), &Migration{Sealed: mig.Sealed[:30]}, sgx.NewCounterService())
			return err
		}},
		{"adopt-tampered-epoch", sgx.ErrBadCheckpoint, func(t *testing.T) error {
			k := newKernel(2048)
			forged := append([]byte(nil), mig.Sealed...)
			forged[12]++ // epoch is authenticated via AAD; bumping it voids the seal
			_, err := Adopt(k, &Migration{Sealed: forged}, sgx.NewCounterService())
			return err
		}},
		{"adopt-tampered-measurement", sgx.ErrBadCheckpoint, func(t *testing.T) error {
			k := newKernel(2048)
			forged := append([]byte(nil), mig.Sealed...)
			forged[20] ^= 0xFF
			_, err := Adopt(k, &Migration{Sealed: forged}, sgx.NewCounterService())
			return err
		}},
		{"adopt-tampered-ciphertext", sgx.ErrBadCheckpoint, func(t *testing.T) error {
			k := newKernel(2048)
			forged := append([]byte(nil), mig.Sealed...)
			forged[len(forged)-1] ^= 0x01
			_, err := Adopt(k, &Migration{Sealed: forged}, sgx.NewCounterService())
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatalf("no error, want %v", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestAdoptFailureLeaksNoEPC: a rejected adopt must leave the destination
// EPC exactly as it found it — a leak here would let an attacker exhaust a
// machine with garbage envelopes.
func TestAdoptFailureLeaksNoEPC(t *testing.T) {
	src := runMigrant(t, newKernel(2048))
	mig, err := src.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	k := newKernel(512)
	free := k.CPU.EPC.FreeFrames()
	forged := append([]byte(nil), mig.Sealed...)
	forged[len(forged)-1] ^= 0x01
	for _, bad := range []*Migration{nil, {}, {Sealed: mig.Sealed[:16]}, {Sealed: forged}} {
		if _, err := Adopt(k, bad, sgx.NewCounterService()); err == nil {
			t.Fatal("hostile envelope adopted")
		}
	}
	if got := k.CPU.EPC.FreeFrames(); got != free {
		t.Fatalf("EPC frames leaked by rejected adopts: %d -> %d", free, got)
	}
}

// TestMigrationEncodeDeterministic: identical sealed state must encode to
// identical bytes (the version table is explicitly sorted), or fleet runs
// could diverge across -jobs orderings.
func TestMigrationEncodeDeterministic(t *testing.T) {
	p := runMigrant(t, newKernel(2048))
	if err := p.Run(p.capture); err != nil {
		t.Fatal(err)
	}
	a := p.encodeState(nil)
	b := p.encodeState(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("same state encoded to different bytes")
	}
	// And the codec round-trips.
	payload, err := decodeState(a)
	if err != nil {
		t.Fatalf("decode of genuine payload: %v", err)
	}
	if payload.Progress != p.Runtime.Progress() {
		t.Fatalf("round-trip progress %d, want %d", payload.Progress, p.Runtime.Progress())
	}
	if len(payload.Pages) != len(p.stateVAs) {
		t.Fatalf("round-trip pages %d, want %d", len(payload.Pages), len(p.stateVAs))
	}
	if err := validatePayload(payload); err != nil {
		t.Fatalf("genuine payload failed validation: %v", err)
	}
}

// TestMigrationSealZeroAlloc gates the seal hot path of both uses per the
// repo's allocation discipline: once the scratch buffers are warm, encode+
// seal allocates nothing, for a migration envelope and for a checkpoint.
// (Capture crosses the enclave boundary and is excluded — it is charged,
// not allocation-gated.)
func TestMigrationSealZeroAlloc(t *testing.T) {
	p := runMigrant(t, newKernel(2048))
	if err := p.Run(p.capture); err != nil {
		t.Fatal(err)
	}
	for _, use := range []sgx.SealUse{sgx.UseMigration, sgx.UseCheckpoint} {
		encodeAndSeal := func() {
			if _, err := p.seal(use, p.Proc.E.MigrationEpoch()+1); err != nil {
				t.Fatal(err)
			}
		}
		encodeAndSeal() // warm the scratch buffers and the cached AEAD
		if allocs := testing.AllocsPerRun(100, encodeAndSeal); allocs != 0 {
			t.Fatalf("%s encode+seal allocates %.1f/op, want 0", use, allocs)
		}
	}
}
