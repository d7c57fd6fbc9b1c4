package metrics

import (
	"slices"
	"sort"
	"testing"
	"unsafe"

	"autarky/internal/sim"
)

// oraclePercentile is the definition the histogram must match exactly:
// nearest-rank over the sorted values, with the histogram's clamping
// applied first (values >= max live in the final bucket).
func oraclePercentile(values []uint64, max uint64, q float64) uint64 {
	clamped := make([]uint64, len(values))
	for i, v := range values {
		if v >= max {
			v = max - 1
		}
		clamped[i] = v
	}
	sort.Slice(clamped, func(i, j int) bool { return clamped[i] < clamped[j] })
	n := uint64(len(clamped))
	rank := uint64(1)
	if q > 0 {
		r := q * float64(n)
		rank = uint64(r)
		if float64(rank) < r {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		if rank > n {
			rank = n
		}
	}
	return clamped[rank-1]
}

// histRange is the range used by the adversarial distributions; small enough
// that saturation actually happens, large enough to span many radix pages.
const histRange = 1 << 16

// wideRange is the range the service layer, the fleet experiments and the
// benchmark record sojourns into.
const wideRange = 1 << 28

// histInput is one distribution and the range it is recorded into.
type histInput struct {
	max    uint64
	values []uint64
}

// onPage draws n values on radix page pi.
func onPage(r *sim.Rand, pi, n uint64) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = pi*histPageSize + r.Uint64n(histPageSize)
	}
	return vs
}

// pageForm names the representation of page pi in h.
func pageForm(h *Histogram, pi int) string {
	switch {
	case pi >= len(h.pages) || h.pages[pi] == nil:
		return "empty"
	case h.pages[pi].dense != nil:
		return "dense"
	default:
		return "sparse"
	}
}

// adversarialDistributions enumerates value sets chosen to break inexact
// percentile schemes: point masses, page-boundary straddles, heavy tails,
// saturation, dense uniform noise, and pages in both of the histogram's
// forms and across the switch between them.
func adversarialDistributions() map[string]histInput {
	r := sim.NewRand(0x415741)
	uniform := make([]uint64, 10_000)
	for i := range uniform {
		uniform[i] = r.Uint64n(histRange)
	}
	heavyTail := make([]uint64, 5_000)
	for i := range heavyTail {
		// Most values tiny, a few enormous: the shape that exposes
		// interpolation error in log-bucketed histograms.
		v := r.Uint64n(64)
		if r.Uint64n(100) == 0 {
			v = histRange - 1 - r.Uint64n(512)
		}
		heavyTail[i] = v
	}
	saturating := make([]uint64, 1_000)
	for i := range saturating {
		saturating[i] = histRange - 100 + r.Uint64n(200) // half beyond range
	}
	// A dense body on two pages under a sparse tail over the whole range:
	// serve-resident's shape and fleet-chaos's together.
	bodyTail := make([]uint64, 3*histDenseAt)
	for i := range bodyTail {
		bodyTail[i] = 2*histPageSize + r.Uint64n(2*histPageSize)
		if r.Uint64n(8) == 0 {
			bodyTail[i] = r.Uint64n(histRange)
		}
	}
	// The last page of a 2^28 range, so the page table grows to its end;
	// a few values saturate into it.
	lastPage := make([]uint64, 300)
	for i := range lastPage {
		lastPage[i] = wideRange - histPageSize + r.Uint64n(histPageSize+64)
	}
	return map[string]histInput{
		"single":       {histRange, []uint64{12345}},
		"all-same":     {histRange, []uint64{7, 7, 7, 7, 7, 7, 7, 7, 7}},
		"two-point":    {histRange, []uint64{0, 0, 0, histRange - 1, histRange - 1}},
		"page-borders": {histRange, []uint64{4095, 4096, 4097, 8191, 8192, 0, histRange - 1}},
		"uniform":      {histRange, uniform},
		"heavy-tail":   {histRange, heavyTail},
		"saturating":   {histRange, saturating},
		// One page that turns dense and keeps recording.
		"crosses-dense":          {histRange, onPage(r, 5, 2*histDenseAt)},
		"dense-body-sparse-tail": {histRange, bodyTail},
		"last-page-2^28":         {wideRange, lastPage},
	}
}

func TestHistogramPercentilesExactAgainstOracle(t *testing.T) {
	qs := []float64{-1, 0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1}
	r := sim.NewRand(0xDEC11E)
	for i := 0; i < 50; i++ {
		qs = append(qs, r.Float64())
	}
	check := func(name string, h *Histogram, in histInput) {
		t.Helper()
		for _, q := range qs {
			want := oraclePercentile(in.values, in.max, q)
			if got := h.Percentile(q); got != want {
				t.Errorf("%s after %d values: Percentile(%v) = %d, oracle %d", name, len(in.values), q, got, want)
			}
		}
	}
	for name, in := range adversarialDistributions() {
		h := NewHistogram(in.max)
		// Read halfway through recording: answers after further Records
		// must be as if the reads never happened.
		half := len(in.values) / 2
		for _, v := range in.values[:half] {
			h.Record(v)
		}
		if half > 0 {
			check(name, h, histInput{in.max, in.values[:half]})
		}
		for _, v := range in.values[half:] {
			h.Record(v)
		}
		check(name, h, in)
	}
}

func TestHistogramAggregates(t *testing.T) {
	h := NewHistogram(histRange)
	if h.Percentile(0.5) != 0 || h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram must report zeros")
	}
	values := []uint64{3, 99, histRange + 500, 7, histRange - 1}
	var sum uint64
	for _, v := range values {
		h.Record(v)
		sum += v
	}
	if h.Count() != uint64(len(values)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(values))
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %d, want %d", h.Sum(), sum)
	}
	if h.Min() != 3 {
		t.Errorf("Min = %d, want 3", h.Min())
	}
	if h.Max() != histRange+500 {
		t.Errorf("Max = %d, want %d (pre-clamp)", h.Max(), histRange+500)
	}
	if h.Saturated() != 1 {
		t.Errorf("Saturated = %d, want 1", h.Saturated())
	}
	if want := float64(sum) / float64(len(values)); h.Mean() != want {
		t.Errorf("Mean = %v, want %v", h.Mean(), want)
	}
}

func TestHistogramMergeMatchesCombinedOracle(t *testing.T) {
	r := sim.NewRand(0x4E16E)
	var halves [2][]uint64
	for i := 0; i < 4_000; i++ {
		v := r.Uint64n(histRange + histRange/8) // some saturate
		halves[i%2] = append(halves[i%2], v)
	}
	const few, half = 100, histDenseAt / 2
	// Each case names the form of page 3 in both inputs and after the
	// merge, which runs in both directions.
	cases := []struct {
		name                     string
		a, b                     []uint64
		aForm, bForm, mergedForm string
	}{
		{"random-halves", halves[0], halves[1], "sparse", "sparse", "sparse"},
		{"sparse+sparse-stays-sparse", onPage(r, 3, few), onPage(r, 3, few), "sparse", "sparse", "sparse"},
		{"sparse+sparse-reaches-dense", onPage(r, 3, half), onPage(r, 3, half), "sparse", "sparse", "dense"},
		{"sparse+dense", onPage(r, 3, few), onPage(r, 3, histDenseAt), "sparse", "dense", "dense"},
		{"dense+dense", onPage(r, 3, histDenseAt), onPage(r, 3, histDenseAt+few), "dense", "dense", "dense"},
		{"empty+dense-and-sparse", nil, append(onPage(r, 3, histDenseAt), onPage(r, 9, few)...), "empty", "dense", "dense"},
	}
	build := func(values []uint64) *Histogram {
		h := NewHistogram(histRange)
		for _, v := range values {
			h.Record(v)
		}
		return h
	}
	for _, c := range cases {
		if fa, fb := pageForm(build(c.a), 3), pageForm(build(c.b), 3); fa != c.aForm || fb != c.bForm {
			t.Fatalf("%s: input pages are %s and %s, want %s and %s", c.name, fa, fb, c.aForm, c.bForm)
		}
		all := append(append([]uint64(nil), c.a...), c.b...)
		for _, pair := range [][2][]uint64{{c.a, c.b}, {c.b, c.a}} {
			h := build(pair[0])
			h.Merge(build(pair[1]))
			if got := pageForm(h, 3); got != c.mergedForm {
				t.Errorf("%s: merged page is %s, want %s", c.name, got, c.mergedForm)
			}
			for _, q := range []float64{0, 0.01, 0.5, 0.99, 0.999, 1} {
				if got, want := h.Percentile(q), oraclePercentile(all, histRange, q); got != want {
					t.Errorf("%s: merged Percentile(%v) = %d, oracle %d", c.name, q, got, want)
				}
			}
			if h.Count() != uint64(len(all)) || h.Min() != slices.Min(all) || h.Max() != slices.Max(all) {
				t.Errorf("%s: merged count/min/max = %d/%d/%d, want %d/%d/%d", c.name,
					h.Count(), h.Min(), h.Max(), len(all), slices.Min(all), slices.Max(all))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("merging different ranges must panic")
		}
	}()
	build(halves[0]).Merge(NewHistogram(histRange * 2))
}

// retainedBytes sums the heap bytes h holds, read from its fields.
func retainedBytes(h *Histogram) uintptr {
	n := unsafe.Sizeof(*h) + uintptr(cap(h.pages))*unsafe.Sizeof((*histPage)(nil))
	for _, p := range h.pages {
		if p == nil {
			continue
		}
		n += unsafe.Sizeof(*p) + uintptr(cap(p.offs))*unsafe.Sizeof(uint16(0))
		if p.dense != nil {
			n += unsafe.Sizeof(*p.dense)
		}
	}
	return n
}

func TestHistogramFootprint(t *testing.T) {
	if got := retainedBytes(NewHistogram(wideRange)); got >= 1<<10 {
		t.Errorf("fresh 2^28-range histogram retains %d bytes, want under 1 KiB", got)
	}
	r := sim.NewRand(0xF007)
	// fleet-chaos: one tenant's sojourns spread thinly over a long tail.
	tail := NewHistogram(wideRange)
	for i := 0; i < 3_000; i++ {
		tail.Record(r.Uint64n(16 << 20))
	}
	if got := retainedBytes(tail); got >= 256<<10 {
		t.Errorf("3,000 samples over 16M cycles retain %d bytes, want under 256 KiB", got)
	}
	// serve-resident: a body packed into a few pages, a tail past it.
	body := NewHistogram(wideRange)
	touched := map[uint64]bool{}
	for i := 0; i < 75_000; i++ {
		v := 47_000 + r.Uint64n(10_000)
		if r.Uint64n(10) == 0 {
			v = 47_000 + r.Uint64n(73_000)
		}
		body.Record(v)
		touched[v>>histPageBits] = true
	}
	if pageForm(body, 12) != "dense" || pageForm(body, 25) != "sparse" {
		t.Fatalf("body shape: page 12 %s, page 25 %s; want dense and sparse", pageForm(body, 12), pageForm(body, 25))
	}
	dense := unsafe.Sizeof(*body) + uintptr(cap(body.pages))*unsafe.Sizeof((*histPage)(nil)) +
		uintptr(len(touched))*(unsafe.Sizeof(histPage{})+unsafe.Sizeof([histPageSize]uint32{}))
	if got := retainedBytes(body); got > dense {
		t.Errorf("75k-sample body retains %d bytes, more than the %d of all-dense pages", got, dense)
	}
}

var (
	histSink  *Histogram
	valueSink uint64
)

// TestHistogramZeroAlloc gates the recording and reading paths the service
// layer and the benchmark run per request and per report (see DESIGN.md,
// "Hot paths & allocation discipline").
func TestHistogramZeroAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { histSink = NewHistogram(wideRange) }); allocs != 1 {
		t.Errorf("NewHistogram allocates %.1f/op, want 1 (the struct)", allocs)
	}
	h := NewHistogram(histRange)
	for i := uint64(0); i < histDenseAt; i++ {
		h.Record(i % histPageSize)
	}
	h.Record(3*histPageSize + 7)
	if pageForm(h, 0) != "dense" || pageForm(h, 3) != "sparse" {
		t.Fatalf("pages are %s and %s, want dense and sparse", pageForm(h, 0), pageForm(h, 3))
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Record(17) }); allocs != 0 {
		t.Errorf("Record into a dense page allocates %.1f/op, want 0", allocs)
	}
	for _, c := range []struct {
		form string
		q    float64
	}{{"dense", 0.5}, {"sparse", 1}} {
		if allocs := testing.AllocsPerRun(100, func() { valueSink = h.Percentile(c.q) }); allocs != 0 {
			t.Errorf("Percentile in a %s page allocates %.1f/op, want 0", c.form, allocs)
		}
	}
}

// benchShape draws n values of a benchmark workload's sojourn shape: the
// serve-resident body (a few pages, dense) or the fleet-chaos tail (16M
// cycles, about one sample per page, sparse).
func benchShape(body bool, n int) []uint64 {
	r := sim.NewRand(7)
	vs := make([]uint64, n)
	for i := range vs {
		if body {
			vs[i] = 47_000 + r.Uint64n(10_000)
		} else {
			vs[i] = r.Uint64n(16 << 20)
		}
	}
	return vs
}

func BenchmarkHistogramRecord(b *testing.B) {
	b.Run("dense-body", func(b *testing.B) {
		vs := benchShape(true, 1<<16)
		h := NewHistogram(wideRange)
		for _, v := range vs {
			h.Record(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Record(vs[i&(len(vs)-1)])
		}
	})
	b.Run("sparse-tail", func(b *testing.B) {
		// A fresh histogram per 3,000 samples, one fleet-chaos tenant's
		// lifetime, so pages stay sparse however long the benchmark runs.
		vs := benchShape(false, 3_000)
		var h *Histogram
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(vs)
			if j == 0 {
				h = NewHistogram(wideRange)
			}
			h.Record(vs[j])
		}
	})
}

// BenchmarkHistogramMerge merges twelve tenants' histograms, each a dense
// body under a sparse tail, into a fresh one: the benchmark's per-rep
// report on fleet-chaos.
func BenchmarkHistogramMerge(b *testing.B) {
	tenants := make([]*Histogram, 12)
	for i := range tenants {
		tenants[i] = NewHistogram(wideRange)
		for _, v := range benchShape(true, 20_000) {
			tenants[i].Record(v)
		}
		for _, v := range benchShape(false, 3_000) {
			tenants[i].Record(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		histSink = NewHistogram(wideRange)
		for _, t := range tenants {
			histSink.Merge(t)
		}
	}
}

// BenchmarkHistogramPercentile reads the median (in a dense page) and the
// tail (in sparse pages) of a body-and-tail histogram.
func BenchmarkHistogramPercentile(b *testing.B) {
	h := NewHistogram(wideRange)
	for _, v := range benchShape(true, 60_000) {
		h.Record(v)
	}
	for _, v := range benchShape(false, 3_000) {
		h.Record(v)
	}
	qs := [...]float64{0.5, 0.99, 0.999}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		valueSink = h.Percentile(qs[i%len(qs)])
	}
}
