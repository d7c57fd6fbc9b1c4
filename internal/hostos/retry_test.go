package hostos

import (
	"bytes"
	"testing"

	"autarky/internal/fault"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// outageStack builds the recovery ladder over a primary that is never
// available: a plain store under fault injection that refuses every
// operation, under the default retry policy, under a fallback mirror. It
// evicts n one-byte blobs through the fallback, so the mirror holds the
// only copy of each, and returns the stack, its clock and the pages.
func outageStack(t *testing.T, n int) (*pagestore.FallbackBackend, *sim.Clock, []mmu.VAddr) {
	t.Helper()
	clock := sim.NewClock()
	injector := fault.NewBackend(pagestore.NewStore(), fault.Plan{Seed: 1, PUnavail: 1}, clock)
	retry := NewRetryBackend(injector, DefaultRetryPolicy(), clock)
	fb := pagestore.NewFallbackBackend(retry, pagestore.NewStore(), clock, sim.DefaultCosts())
	vas := make([]mmu.VAddr, n)
	pages := make([]pagestore.PageBlob, n)
	for i := range pages {
		vas[i] = mmu.PageOf(uint64(0x100 + i))
		pages[i] = pagestore.PageBlob{VA: vas[i], Blob: pagestore.Blob{Ciphertext: []byte{byte(i)}, Version: 1, EnclaveID: 7}}
	}
	if err := fb.EvictBatch(7, pages); err != nil {
		t.Fatal(err)
	}
	return fb, clock, vas
}

// recoveryCost is what one operation spent in the recovery layers.
type recoveryCost struct {
	retries, giveups, fallbacks, cycles uint64
}

// costOf runs op and returns what it added to the clock and the counters.
func costOf(t *testing.T, clock *sim.Clock, op func() error) recoveryCost {
	t.Helper()
	m := metrics.Of(clock)
	read := func() recoveryCost {
		return recoveryCost{
			retries:   m.Count(metrics.CntBackendRetries),
			giveups:   m.Count(metrics.CntBackendGiveups),
			fallbacks: m.Count(metrics.CntBackendFallbacks),
			cycles:    clock.Cycles(),
		}
	}
	before := read()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	after := read()
	return recoveryCost{
		retries:   after.retries - before.retries,
		giveups:   after.giveups - before.giveups,
		fallbacks: after.fallbacks - before.fallbacks,
		cycles:    after.cycles - before.cycles,
	}
}

// TestFallbackBatchSpendsOneRetryBudget: when the primary is down, a fetch
// batch pays the retry budget once and the mirror serves every page. A
// one-page batch costs exactly what a single fetch costs, and a four-page
// batch costs one retry budget plus four mirror copies — not a second
// round of retries for each page.
func TestFallbackBatchSpendsOneRetryBudget(t *testing.T) {
	policy := DefaultRetryPolicy()
	var budget uint64
	for retry := 1; retry < policy.Attempts; retry++ {
		budget += policy.backoff(retry)
	}
	blobCopy := sim.DefaultCosts().BlobCopy

	fb, clock, vas := outageStack(t, 1)
	var single pagestore.Blob
	one := costOf(t, clock, func() (err error) {
		single, err = fb.Fetch(7, vas[0])
		return err
	})
	want := recoveryCost{retries: 3, giveups: 1, fallbacks: 1, cycles: budget + blobCopy}
	if one != want {
		t.Fatalf("Fetch cost %+v, want %+v", one, want)
	}
	if !bytes.Equal(single.Ciphertext, []byte{0}) {
		t.Fatalf("Fetch returned %v, want the mirrored blob", single.Ciphertext)
	}

	fb, clock, vas = outageStack(t, 1)
	out := make([]pagestore.Blob, 1)
	if got := costOf(t, clock, func() error { return fb.FetchBatch(7, vas, out) }); got != one {
		t.Errorf("one-page FetchBatch cost %+v, Fetch cost %+v", got, one)
	}

	fb, clock, vas = outageStack(t, 4)
	out = make([]pagestore.Blob, 4)
	got := costOf(t, clock, func() error { return fb.FetchBatch(7, vas, out) })
	want = recoveryCost{retries: 3, giveups: 1, fallbacks: 4, cycles: budget + 4*blobCopy}
	if got != want {
		t.Fatalf("four-page FetchBatch cost %+v, want %+v", got, want)
	}
	for i, b := range out {
		if !bytes.Equal(b.Ciphertext, []byte{byte(i)}) {
			t.Fatalf("page %d: got %v, want the mirrored blob", i, b.Ciphertext)
		}
	}
}
