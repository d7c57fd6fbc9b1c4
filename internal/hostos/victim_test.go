package hostos

import (
	"reflect"
	"testing"

	"autarky/internal/mmu"
	"autarky/internal/pagestore"
)

// recordingBackend wraps a PagingBackend and records the eviction order —
// the externally visible trace of pickVictim's decisions.
type recordingBackend struct {
	pagestore.PagingBackend
	evictions []mmu.VAddr
}

func (r *recordingBackend) EvictBatch(id uint64, pages []pagestore.PageBlob) error {
	for _, pb := range pages {
		r.evictions = append(r.evictions, pb.VA)
	}
	return r.PagingBackend.EvictBatch(id, pages)
}

// victimRun loads one over-quota enclave, touches every page twice (so the
// CLOCK hand does full second-chance sweeps) and then squeezes the
// residency down with ReclaimFromEnclave. It returns the complete eviction
// order and the final residency fingerprint.
func victimRun(t *testing.T) ([]mmu.VAddr, uint64) {
	t.Helper()
	m := newMachine()
	rec := &recordingBackend{PagingBackend: m.kernel.Store}
	if err := m.kernel.SetBackend(rec); err != nil {
		t.Fatal(err)
	}
	rt := &appRuntime{}
	p, err := m.kernel.LoadEnclave(spec(16, 10, false, rt))
	if err != nil {
		t.Fatal(err)
	}
	var accessErr error
	rt.app = func() {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 16; i++ {
				if err := m.cpu.Touch(base+mmu.VAddr(i*mmu.PageSize), mmu.AccessWrite); err != nil {
					accessErr = err
					return
				}
			}
		}
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if accessErr != nil {
		t.Fatal(accessErr)
	}
	before := p.ResidentPages()
	if got := m.kernel.ReclaimFromEnclave(p, 4); got != before-4 || p.ResidentPages() != 4 {
		// ReclaimFromEnclave reports exactly the pages it evicted and must
		// land the proc on the requested ceiling.
		t.Fatalf("reclaimed %d of %d, %d remain resident", got, before, p.ResidentPages())
	}
	return rec.evictions, p.ResidencyFingerprint()
}

// TestVictimSelectionDeterministic: two identical machines running the
// identical workload must evict the identical pages in the identical order
// — pickVictim (CLOCK hand, second-chance sweep) and ReclaimFromEnclave
// are deterministic functions of machine state. This is the regression
// guard for the model checker's canonical state hashing: if victim
// selection picks up any map-iteration or timing dependence, the orderly
// digests (and every experiment golden) go non-reproducible.
func TestVictimSelectionDeterministic(t *testing.T) {
	ev1, fp1 := victimRun(t)
	ev2, fp2 := victimRun(t)
	if len(ev1) == 0 {
		t.Fatal("workload evicted nothing — victim selection never exercised")
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("eviction orders diverged:\n%v\n%v", ev1, ev2)
	}
	if fp1 != fp2 {
		t.Fatalf("residency fingerprints diverged: %#x vs %#x", fp1, fp2)
	}
}

// TestReclaimRespectsPinnedPages: reclaim must never evict an
// enclave-managed (pinned) page, even when that leaves it short of the
// requested ceiling.
func TestReclaimRespectsPinnedPages(t *testing.T) {
	m := newMachine()
	p, err := m.kernel.LoadEnclave(spec(8, 0, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	vas := p.PageVAs()
	if _, err := m.kernel.SetEnclaveManaged(p.E, vas[:4]); err != nil {
		t.Fatal(err)
	}
	m.kernel.ReclaimFromEnclave(p, 0)
	if p.ResidentPages() < 4 {
		t.Fatalf("reclaim evicted pinned pages: %d resident", p.ResidentPages())
	}
	for _, va := range vas[:4] {
		pte, ok := m.pt.Get(va)
		if !ok || !pte.Present {
			t.Fatalf("pinned page %s lost its mapping", va)
		}
	}
}
