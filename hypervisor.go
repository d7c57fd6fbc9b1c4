package autarky

import (
	"fmt"

	"autarky/internal/hostos"
	"autarky/internal/mmu"
)

// Hypervisor models the static virtualization mode of §5.4, the one the
// paper identifies as requiring no changes: each guest VM receives a
// disjoint slice of the physical EPC and runs its own (untrusted) kernel;
// Autarky enclaves inside a guest work exactly as on bare metal, and no
// guest can name another guest's frames ("cloud platforms that statically
// partition EPC will require no modification"). Tenants that should instead
// share one machine's EPC and scheduler are Machine.Spawn calls with
// Config.QuotaPages as each tenant's frame budget.
//
// Transparent hypervisor demand paging of EPC is intentionally absent:
// Autarky forbids it (§5.4) because the VM cannot observe masked faults.
type Hypervisor struct {
	totalFrames int
	nextFrame   mmu.PFN
	remaining   int
	guests      []*Machine
}

// NewHypervisor owns totalFrames of physical EPC to hand out as static,
// disjoint partitions via CreateGuest.
func NewHypervisor(totalFrames int) *Hypervisor {
	if totalFrames <= 0 {
		panic("autarky: hypervisor needs a positive EPC size")
	}
	return &Hypervisor{
		totalFrames: totalFrames,
		nextFrame:   hostos.DefaultGeometry(totalFrames).EPCBase,
		remaining:   totalFrames,
	}
}

// Remaining reports unassigned EPC frames.
func (h *Hypervisor) Remaining() int { return h.remaining }

// Guests returns the guest machines created so far. The slice is a copy:
// mutating it cannot corrupt the hypervisor's own bookkeeping.
func (h *Hypervisor) Guests() []*Machine {
	out := make([]*Machine, len(h.guests))
	copy(out, h.guests)
	return out
}

// CreateGuest carves frames of EPC into a new guest VM with its own machine.
// The guest's EPC PFN range is disjoint from every other guest's — the
// static-partitioning guarantee. Frame-budget violations surface through the
// error taxonomy: a non-positive request is a *ConfigError (ErrBadConfig);
// over-assignment wraps ErrEPCExhausted.
func (h *Hypervisor) CreateGuest(frames int, opts ...Option) (*Machine, error) {
	if frames <= 0 {
		return nil, &ConfigError{Field: "GuestFrames",
			Reason: fmt.Sprintf("must be positive, got %d", frames)}
	}
	if frames > h.remaining {
		return nil, fmt.Errorf("%w: %d frames requested, %d remain of %d",
			ErrEPCExhausted, frames, h.remaining, h.totalFrames)
	}
	base := h.nextFrame
	h.nextFrame += mmu.PFN(frames)
	h.remaining -= frames

	opts = append(opts, WithEPCFrames(frames), withEPCBase(base))
	g := NewMachine(opts...)
	h.guests = append(h.guests, g)
	return g, nil
}

// GuestEPCRange reports a guest's frame range [base, base+frames), for
// verifying partition disjointness.
func GuestEPCRange(m *Machine) (base mmu.PFN, frames int) {
	epc := m.Kernel.CPU.EPC
	return epc.Base, epc.NumFrames()
}
