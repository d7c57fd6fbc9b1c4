package hostos

import (
	"errors"
	"fmt"
	"testing"

	"autarky/internal/core"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
)

// TestOutOfRangePagesReadAsUnknown pins what every per-page lookup answers
// for an address outside the enclave's ELRANGE — the page just below Base,
// the page just past its end, and address 0 — in each layer: the kernel's
// view and its seven page-keyed driver calls fail with ErrUnknownPage, the
// trusted runtime reports the page unmanaged, the hardware version chain
// reads 0 and ELDU refuses with ErrEPCMConflict. None of them may panic,
// and none may alias the address onto a page inside the range.
func TestOutOfRangePagesReadAsUnknown(t *testing.T) {
	const pages = 4
	m := newMachine()
	rt := core.NewRuntime(m.cpu, m.kernel, m.clock, m.kernel.Costs)
	sp := spec(pages, 0, true, rt)
	sp.Attrs |= sgx.AttrSGX2
	p, err := m.kernel.LoadEnclave(sp)
	if err != nil {
		t.Fatal(err)
	}
	rt.Attach(p.E)
	inRange := make([]mmu.VAddr, pages)
	for i := range inRange {
		inRange[i] = base + mmu.VAddr(i*mmu.PageSize)
	}
	if err := rt.ManagePages(inRange, mmu.PermRW, true); err != nil {
		t.Fatal(err)
	}
	k, e := m.kernel, p.E
	for _, va := range []mmu.VAddr{base - mmu.PageSize, base + mmu.VAddr(e.Size), 0} {
		t.Run(fmt.Sprintf("%#x", uint64(va)), func(t *testing.T) {
			if resident, managed, ok := p.Page(va); resident || managed || ok {
				t.Errorf("Proc.Page = (%v, %v, %v), want all false", resident, managed, ok)
			}
			one := []mmu.VAddr{va}
			calls := []struct {
				name string
				call func() error
			}{
				{"SetOSManaged", func() error { return k.SetOSManaged(e, one) }},
				{"SetEnclaveManaged", func() error { _, err := k.SetEnclaveManaged(e, one); return err }},
				{"FetchPages", func() error { return k.FetchPages(e, one) }},
				{"EvictPages", func() error { return k.EvictPages(e, one) }},
				{"RestrictPerms", func() error { _, err := k.RestrictPerms(e, va, mmu.PermRead); return err }},
				{"TrimPage", func() error { _, err := k.TrimPage(e, va); return err }},
				{"RemovePage", func() error { return k.RemovePage(e, va) }},
			}
			for _, c := range calls {
				if err := c.call(); !errors.Is(err, ErrUnknownPage) {
					t.Errorf("%s: %v, want ErrUnknownPage", c.name, err)
				}
			}
			if resident, managed := rt.PageResident(va); resident || managed {
				t.Errorf("Runtime.PageResident = (%v, %v), want (false, false)", resident, managed)
			}
			if v := e.Version(va); v != 0 {
				t.Errorf("Enclave.Version = %d, want 0", v)
			}
			if _, err := k.CPU.ELDU(e, va, k.Backend()); !errors.Is(err, sgx.ErrEPCMConflict) {
				t.Errorf("ELDU: %v, want ErrEPCMConflict", err)
			}
		})
	}
	// The calls above changed nothing inside the range.
	if got := p.ResidentPages(); got != pages {
		t.Fatalf("resident pages = %d, want %d", got, pages)
	}
	for _, va := range inRange {
		if resident, managed, ok := p.Page(va); !resident || !managed || !ok {
			t.Fatalf("page %s = (%v, %v, %v) after the out-of-range calls", va, resident, managed, ok)
		}
	}
}
