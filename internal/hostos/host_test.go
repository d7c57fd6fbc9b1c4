package hostos

import (
	"testing"

	"autarky/internal/mmu"
	"autarky/internal/sim"
)

func TestNewHostAssemblesOneMachine(t *testing.T) {
	for _, g := range []Geometry{DefaultGeometry(512), {EPCBase: 0x1000, EPCFrames: 40, TLBSets: 16, TLBWays: 2}} {
		clock, costs := sim.NewClock(), sim.DefaultCosts()
		k := NewHost(clock, costs, g, []byte("t"))
		epc, tlb := k.CPU.EPC, k.CPU.TLB
		switch {
		case k.Clock != clock || k.CPU.Clock != clock || k.CPU.Costs != k.Costs || k.CPU.PT != k.PT || k.Backend() != k.Store:
			t.Fatalf("%+v: a part is off the host's clock, costs, page table or store", g)
		case k.CPU.OS != k:
			t.Fatalf("%+v: the CPU's OS handler is not the kernel", g)
		case epc.Base != g.EPCBase || epc.NumFrames() != g.EPCFrames || tlb.Sets() != g.TLBSets || tlb.Ways() != g.TLBWays:
			t.Fatalf("%+v: EPC %#x+%d, TLB %dx%d", g, epc.Base, epc.NumFrames(), tlb.Sets(), tlb.Ways())
		}

		// k.Costs is the host's own copy: the caller's value and the host's
		// never reach each other, and the TLB and page table charge the host
		// clock through it.
		k.Costs.TLBFlushLocal, k.Costs.PTWalkLevel = 1001, 7
		if costs.TLBFlushLocal == 1001 {
			t.Fatalf("%+v: editing k.Costs reached the caller's value", g)
		}
		costs.TLBFlushLocal = 5
		before := clock.Cycles()
		tlb.FlushAll()
		if _, f := k.PT.Walk(0x5000, mmu.AccessRead); f == nil {
			t.Fatalf("%+v: walk of an empty page table did not fault", g)
		}
		if got := clock.Cycles() - before; got != 1001+7 {
			t.Fatalf("%+v: flush and one-level walk charged %d cycles, want %d", g, got, 1001+7)
		}
	}
}
