package hostos

import (
	"fmt"
)

// ErrMigrated is returned for a handle to an enclave that was retired by a
// migration handoff: its sealed state now lives on another machine and this
// incarnation must never run again. It wraps ErrNotLoaded — migrated-away is
// a specific way of not being in the kernel's process table — so callers
// matching the generic sentinel keep working while migration-aware callers
// can tell the two apart.
var ErrMigrated = fmt.Errorf("hostos: enclave migrated away: %w", ErrNotLoaded)

// RetireEnclave completes the source side of a migration handoff: after the
// enclave's state has been captured and sealed, the kernel marks the
// incarnation dead with the migration reason, tears it down like any other
// dead enclave, and marks its table slot retired so stale handles report
// ErrMigrated. The order matters — retire before teardown — because
// DestroyEnclave refuses live enclaves, and the refusal is exactly the
// adopt-while-running protection the migration protocol needs elsewhere.
func (k *Kernel) RetireEnclave(p *Proc) error {
	if _, in := k.CPU.InEnclave(); in {
		return fmt.Errorf("hostos: cannot retire an enclave while one is running")
	}
	p, err := k.proc(p)
	if err != nil {
		return err
	}
	if p.suspended {
		// A suspended enclave's pages are already sealed out; resume it
		// before quiescing so the migration captures a runnable image.
		return fmt.Errorf("%w: enclave %d", ErrSuspended, p.E.ID)
	}
	if dead, _, _ := p.E.Dead(); !dead {
		k.CPU.RetireEnclave(p.E)
	}
	if err := k.DestroyEnclave(p); err != nil {
		return err
	}
	k.procs[p.E.ID].retired = true
	return nil
}
