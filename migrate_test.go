package autarky

import (
	"errors"
	"testing"
)

// migTestImage is a small self-paging app used by the migration tests.
func migTestImage(name string) (AppImage, Config) {
	img := AppImage{
		Name:      name,
		Libraries: []Library{{Name: "libmig.so", Pages: 2}},
		HeapPages: 16,
	}
	cfg := Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		QuotaPages:     24,
		RateLimitBurst: 1 << 40,
	}
	return img, cfg
}

// migSpawnRun spawns the app, dirties its heap with a recognizable pattern
// and runs it to completion under the scheduler.
func migSpawnRun(t *testing.T, m *Machine) *Proc {
	t.Helper()
	img, cfg := migTestImage("mover")
	p, err := m.Spawn(img, cfg)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if err := p.Run(func(ctx *Context) {
		for i, va := range p.Heap.PageVAs() {
			ctx.Write(va, []byte{byte(i)*3 + 7})
		}
		ctx.Progress(5)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p
}

// TestFacadeMigrateRoundTrip: Quiesce on one machine, Adopt on another with
// a different EPC geometry, and the state survives the move.
func TestFacadeMigrateRoundTrip(t *testing.T) {
	src := NewMachine(WithEPCFrames(2048))
	dst := NewMachine(WithEPCFrames(256))
	counters := NewCounterService()

	p := migSpawnRun(t, src)
	mig, err := p.Quiesce()
	if err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if counter(t, src.Metrics(), "migrate.seals") != 1 {
		t.Fatal("seal not counted")
	}

	p2, err := dst.Adopt(mig, counters)
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if got := p2.Runtime.Progress(); got != 5 {
		t.Fatalf("progress = %d, want 5", got)
	}
	if err := p2.Run(func(ctx *Context) {
		var b [1]byte
		for i, va := range p2.Heap.PageVAs() {
			ctx.Read(va, b[:])
			if b[0] != byte(i)*3+7 {
				panic("heap lost in migration")
			}
		}
	}); err != nil {
		t.Fatalf("run after adopt: %v", err)
	}
	if counter(t, dst.Metrics(), "migrate.adopts") != 1 {
		t.Fatal("adopt not counted")
	}
	if got := counters.Committed(p2.Enclave().Measurement()); got != 1 {
		t.Fatalf("committed epoch = %d, want 1", got)
	}
}

// TestFacadeMigrationMisuse mirrors the hostos out-of-order suite at the
// facade: every misuse answers its sentinel and never panics.
func TestFacadeMigrationMisuse(t *testing.T) {
	cases := []struct {
		name string
		want error
		run  func(t *testing.T) error
	}{
		{"quiesce-twice", ErrMigrated, func(t *testing.T) error {
			m := NewMachine(WithEPCFrames(512))
			p := migSpawnRun(t, m)
			if _, err := p.Quiesce(); err != nil {
				t.Fatalf("first quiesce: %v", err)
			}
			_, err := p.Quiesce()
			return err
		}},
		{"quiesce-then-run", ErrMigrated, func(t *testing.T) error {
			m := NewMachine(WithEPCFrames(512))
			p := migSpawnRun(t, m)
			if _, err := p.Quiesce(); err != nil {
				t.Fatalf("quiesce: %v", err)
			}
			return p.Run(func(*Context) {})
		}},
		{"adopt-while-running", ErrEnclaveLive, func(t *testing.T) error {
			src := NewMachine(WithEPCFrames(512))
			dst := NewMachine(WithEPCFrames(512))
			p := migSpawnRun(t, src)
			base := p.Config().Base
			mig, err := p.Quiesce()
			if err != nil {
				t.Fatalf("quiesce: %v", err)
			}
			// A live enclave occupies the image's address range on the
			// destination.
			img, cfg := migTestImage("squatter")
			cfg.Base = base
			if _, err := dst.Spawn(img, cfg); err != nil {
				t.Fatalf("spawn squatter: %v", err)
			}
			_, err = dst.Adopt(mig, nil)
			return err
		}},
		{"adopt-stale-counter", ErrStaleMigration, func(t *testing.T) error {
			src := NewMachine(WithEPCFrames(512))
			dst := NewMachine(WithEPCFrames(512))
			counters := NewCounterService()
			p := migSpawnRun(t, src)
			mig, err := p.Quiesce()
			if err != nil {
				t.Fatalf("quiesce: %v", err)
			}
			if _, err := dst.Adopt(mig, counters); err != nil {
				t.Fatalf("first adopt: %v", err)
			}
			// Replaying the same envelope on a third machine must be
			// refused by the committed counter.
			third := NewMachine(WithEPCFrames(512))
			_, err = third.Adopt(mig, counters)
			return err
		}},
		{"adopt-nil", ErrBadCheckpoint, func(t *testing.T) error {
			m := NewMachine(WithEPCFrames(512))
			_, err := m.Adopt(nil, nil)
			return err
		}},
		{"adopt-empty", ErrBadCheckpoint, func(t *testing.T) error {
			m := NewMachine(WithEPCFrames(512))
			_, err := m.Adopt(&Migration{}, nil)
			return err
		}},
		{"adopt-truncated", ErrBadCheckpoint, func(t *testing.T) error {
			src := NewMachine(WithEPCFrames(512))
			dst := NewMachine(WithEPCFrames(512))
			p := migSpawnRun(t, src)
			mig, err := p.Quiesce()
			if err != nil {
				t.Fatalf("quiesce: %v", err)
			}
			mig.Sealed = mig.Sealed[:len(mig.Sealed)/2]
			_, err = dst.Adopt(mig, nil)
			return err
		}},
		{"adopt-wrong-root", ErrBadCheckpoint, func(t *testing.T) error {
			src := NewMachine(WithEPCFrames(512))
			alien := NewMachine(WithEPCFrames(512), WithRootSecret([]byte("other-fleet")))
			p := migSpawnRun(t, src)
			mig, err := p.Quiesce()
			if err != nil {
				t.Fatalf("quiesce: %v", err)
			}
			_, err = alien.Adopt(mig, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatalf("%s: no error", tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

// TestFacadeMigratedRefinesNotLoaded: lifecycle code matching ErrNotLoaded
// keeps matching after a migration.
func TestFacadeMigratedRefinesNotLoaded(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	p := migSpawnRun(t, m)
	if _, err := p.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	err := p.Run(func(*Context) {})
	if !errors.Is(err, ErrMigrated) || !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("err = %v, want ErrMigrated refining ErrNotLoaded", err)
	}
}

// TestFacadeAdoptRejectionCounted: refused adoptions surface in the
// destination machine's metrics.
func TestFacadeAdoptRejectionCounted(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	if _, err := m.Adopt(&Migration{Sealed: []byte("junk")}, nil); err == nil {
		t.Fatal("junk adopted")
	}
	if got := counter(t, m.Metrics(), "migrate.rejected"); got != 1 {
		t.Fatalf("rejects counted = %d, want 1", got)
	}
}
