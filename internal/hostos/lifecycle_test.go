package hostos

import (
	"errors"
	"testing"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
)

// loadLive loads a small enclave and returns its proc.
func loadLive(t *testing.T, m *testMachine) *Proc {
	t.Helper()
	p, err := m.kernel.LoadEnclave(spec(4, 0, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// killAndLoad loads an enclave and terminates it on its first entry.
func killAndLoad(t *testing.T, m *testMachine) *Proc {
	t.Helper()
	rt := &appRuntime{}
	p, err := m.kernel.LoadEnclave(spec(4, 0, false, rt))
	if err != nil {
		t.Fatal(err)
	}
	rt.app = func() { m.cpu.Terminate(sgx.TerminateAttackDetected, "lifecycle test kill") }
	if err := m.kernel.Run(p); err == nil {
		t.Fatal("terminated run reported success")
	}
	return p
}

// destroyed loads, kills and destroys an enclave, returning the stale proc
// handle a confused (or hostile) caller might keep using.
func destroyed(t *testing.T, m *testMachine) *Proc {
	t.Helper()
	p := killAndLoad(t, m)
	if err := m.kernel.DestroyEnclave(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// syntheticFault is a fault the hardware never raised — the attacker's
// spurious-delivery move.
func syntheticFault() *mmu.Fault {
	return &mmu.Fault{Addr: base, Type: mmu.AccessRead, NotPresent: true}
}

// TestOutOfOrderAPISequences drives every kernel entry point out of order
// — before load, after destroy, in the wrong suspend state — and asserts
// each returns its documented sentinel. These orderings are the unit-level
// mirror of what internal/orderly explores exhaustively; several of them
// were nil-pointer panics (or silent successes) before the stale-handle
// guards existed.
func TestOutOfOrderAPISequences(t *testing.T) {
	cases := []struct {
		name string
		want error
		call func(t *testing.T, m *testMachine) error
	}{
		{"run-before-load", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			return m.kernel.Run(&Proc{})
		}},
		{"run-nil-proc", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			return m.kernel.Run(nil)
		}},
		{"run-after-destroy", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			return m.kernel.Run(destroyed(t, m))
		}},
		{"double-destroy", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			return m.kernel.DestroyEnclave(destroyed(t, m))
		}},
		{"destroy-before-load", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			return m.kernel.DestroyEnclave(&Proc{})
		}},
		{"destroy-live", ErrEnclaveLive, func(t *testing.T, m *testMachine) error {
			return m.kernel.DestroyEnclave(loadLive(t, m))
		}},
		{"fault-after-destroy", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			p := destroyed(t, m)
			return m.kernel.HandlePageFault(m.cpu, p.E, p.TCS, syntheticFault())
		}},
		{"timer-after-destroy", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			p := destroyed(t, m)
			return m.kernel.HandleTimer(m.cpu, p.E, p.TCS)
		}},
		{"suspend-before-load", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			_, err := m.kernel.SuspendEnclave(&Proc{})
			return err
		}},
		{"double-suspend", ErrSuspended, func(t *testing.T, m *testMachine) error {
			p := loadLive(t, m)
			if _, err := m.kernel.SuspendEnclave(p); err != nil {
				t.Fatal(err)
			}
			_, err := m.kernel.SuspendEnclave(p)
			return err
		}},
		{"suspend-dead", sgx.ErrEnclaveTerminated, func(t *testing.T, m *testMachine) error {
			_, err := m.kernel.SuspendEnclave(killAndLoad(t, m))
			return err
		}},
		{"run-while-suspended", ErrSuspended, func(t *testing.T, m *testMachine) error {
			p := loadLive(t, m)
			if _, err := m.kernel.SuspendEnclave(p); err != nil {
				t.Fatal(err)
			}
			return m.kernel.Run(p)
		}},
		{"resume-not-suspended", ErrNotSuspended, func(t *testing.T, m *testMachine) error {
			return m.kernel.ResumeEnclave(loadLive(t, m))
		}},
		{"resume-before-load", ErrNotLoaded, func(t *testing.T, m *testMachine) error {
			return m.kernel.ResumeEnclave(&Proc{})
		}},
		{"swap-backend-under-live-enclave", ErrEnclavesLoaded, func(t *testing.T, m *testMachine) error {
			loadLive(t, m)
			return m.kernel.SetBackend(pagestore.NewStore())
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine()
			err := tc.call(t, m)
			if err == nil {
				t.Fatalf("out-of-order call silently succeeded, want %v", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestSwapBackendAfterTeardown: once the last enclave is destroyed the
// backend swap becomes legal again — the refusal is about live state, not
// a one-way latch.
func TestSwapBackendAfterTeardown(t *testing.T) {
	m := newMachine()
	destroyed(t, m)
	if err := m.kernel.SetBackend(pagestore.NewStore()); err != nil {
		t.Fatalf("swap after teardown: %v", err)
	}
}

// retired loads an enclave and retires it as a migration handoff does,
// returning the stale proc handle the source machine is left with.
func retired(t *testing.T, m *testMachine) *Proc {
	t.Helper()
	p := loadLive(t, m)
	if err := m.kernel.RetireEnclave(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDriverCallsOnStaleEnclaves calls every driver entry point for an
// enclave the kernel no longer hosts (destroyed, or retired by a migration)
// and for no enclave at all, while a live enclave occupies the same
// addresses. Each call fails with the stale-handle sentinel, still pays for
// exactly one driver call (the request crossed before the host looked at
// it), and changes no page state. Quota charges nothing and reports an
// empty enclave.
func TestDriverCallsOnStaleEnclaves(t *testing.T) {
	pages := []mmu.VAddr{base}
	calls := []struct {
		name string
		call func(k *Kernel, e *sgx.Enclave) error
	}{
		{"SetOSManaged", func(k *Kernel, e *sgx.Enclave) error { return k.SetOSManaged(e, pages) }},
		{"SetEnclaveManaged", func(k *Kernel, e *sgx.Enclave) error {
			_, err := k.SetEnclaveManaged(e, pages)
			return err
		}},
		{"FetchPages", func(k *Kernel, e *sgx.Enclave) error { return k.FetchPages(e, pages) }},
		{"EvictPages", func(k *Kernel, e *sgx.Enclave) error { return k.EvictPages(e, pages) }},
		{"AugPages", func(k *Kernel, e *sgx.Enclave) error {
			_, err := k.AugPages(e, pages, nil)
			return err
		}},
		{"RestrictPerms", func(k *Kernel, e *sgx.Enclave) error {
			_, err := k.RestrictPerms(e, base, mmu.PermRead|mmu.PermUser)
			return err
		}},
		{"TrimPage", func(k *Kernel, e *sgx.Enclave) error {
			_, err := k.TrimPage(e, base)
			return err
		}},
		{"RemovePage", func(k *Kernel, e *sgx.Enclave) error { return k.RemovePage(e, base) }},
	}
	handles := []struct {
		name  string
		want  error
		stale func(t *testing.T, m *testMachine) *Proc // nil: no enclave
	}{
		{"destroyed", ErrNotLoaded, destroyed},
		{"retired", ErrMigrated, retired},
		{"nil", ErrNotLoaded, nil},
	}
	// state is everything a driver call could change: the stale and live
	// processes' paging state, the EPC, the store and the shared PTE.
	type state struct {
		stale, live uint64
		free, blobs int
		pte         mmu.PTE
	}
	for _, h := range handles {
		for _, c := range calls {
			t.Run(h.name+"/"+c.name, func(t *testing.T) {
				m := newMachine()
				var stale *Proc
				var e *sgx.Enclave
				if h.stale != nil {
					stale = h.stale(t, m)
					e = stale.E
				}
				live := loadLive(t, m)
				snap := func() state {
					s := state{live: live.ResidencyFingerprint(), free: m.cpu.EPC.FreeFrames(), blobs: m.kernel.Store.Len()}
					if stale != nil {
						s.stale = stale.ResidencyFingerprint()
					}
					s.pte, _ = m.pt.Get(base)
					return s
				}
				before, calls, cycles := snap(), m.count(metrics.CntDriverCalls), m.clock.Cycles()

				err := c.call(m.kernel, e)
				if !errors.Is(err, h.want) || !errors.Is(err, ErrNotLoaded) {
					t.Fatalf("got %v, want %v (an ErrNotLoaded)", err, h.want)
				}
				if got := m.count(metrics.CntDriverCalls) - calls; got != 1 {
					t.Fatalf("charged %d driver calls, want 1", got)
				}
				if got := m.clock.Cycles() - cycles; got != m.kernel.Costs.ExitlessCall {
					t.Fatalf("charged %d cycles, want one exitless call (%d)", got, m.kernel.Costs.ExitlessCall)
				}
				if after := snap(); after != before {
					t.Fatalf("page state changed: %+v -> %+v", before, after)
				}

				calls = m.count(metrics.CntDriverCalls)
				if limit, resident := m.kernel.Quota(e); limit != 0 || resident != 0 {
					t.Fatalf("Quota = %d, %d; want 0, 0", limit, resident)
				}
				if got := m.count(metrics.CntDriverCalls) - calls; got != 0 {
					t.Fatalf("Quota charged %d driver calls, want 0", got)
				}
			})
		}
	}
}
