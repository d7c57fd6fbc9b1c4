package metrics

// Histogram is the per-request latency recorder of the service layer: a
// histogram whose buckets are exactly one cycle wide, so the percentiles it
// reports at experiment end are *exact* — identical to what a sorted slice
// of every recorded value would give — not interpolated estimates from
// logarithmic buckets.
//
// Values live in a two-level radix: a page table over 4096-cycle pages
// that grows to the highest page recorded, so a wide range costs nothing
// until samples arrive. Each page holds its samples in the smaller of two
// exact forms. A sparse page keeps the 2-byte in-page offset of every
// sample, unsorted; a dense page keeps one uint32 counter per bucket. A
// page turns dense once its offset list would be no smaller than the
// counters, so a tail spread thinly over millions of cycles costs a few
// bytes per sample and a busy body about 16 KiB per page. Recording into
// a dense page touches one counter and allocates nothing; recording into a
// sparse page appends, so its list reallocates only as it grows, never per
// request. Values at or beyond the configured maximum are clamped into the
// final bucket and tallied separately (Saturated), so a misconfigured range
// is visible instead of silently skewing the tail.
//
// Like every metrics structure, a Histogram belongs to one machine on one
// goroutine; cross-cell aggregation merges immutable snapshots via Merge
// after the cells finish.

// histPageBits sets the radix page size: 2^12 = 4096 one-cycle buckets.
const histPageBits = 12

const histPageSize = 1 << histPageBits

// histDenseAt is the sample count at which a page's offset list (2 bytes a
// sample) would be no smaller than its counters (4 bytes a bucket): 8192.
const histDenseAt = histPageSize * 4 / 2

// histPage holds one page's samples in exactly one form: offs while it has
// fewer than histDenseAt samples, dense from then on.
type histPage struct {
	n     uint64                // samples recorded on this page
	offs  []uint16              // sparse form: in-page offsets, unsorted
	dense *[histPageSize]uint32 // dense form: one counter per bucket
}

func (p *histPage) add(off uint16) {
	p.n++
	switch {
	case p.dense != nil:
		p.dense[off]++
	case p.n < histDenseAt:
		p.offs = append(p.offs, off)
	default:
		p.densify()
		p.dense[off]++
	}
}

// densify turns a sparse page into counters; a dense page is left as is.
func (p *histPage) densify() {
	if p.dense != nil {
		return
	}
	p.dense = new([histPageSize]uint32)
	for _, off := range p.offs {
		p.dense[off]++
	}
	p.offs = nil
}

// merge adds o's samples to p. Two sparse pages that stay under the
// threshold concatenate; any other pair densifies p and adds, so a page's
// form depends only on its count, never on record or merge order.
func (p *histPage) merge(o *histPage) {
	if p.dense == nil && o.dense == nil && p.n+o.n < histDenseAt {
		p.offs = append(p.offs, o.offs...)
	} else {
		p.densify()
		if o.dense != nil {
			for i, c := range o.dense {
				p.dense[i] += c
			}
		} else {
			for _, off := range o.offs {
				p.dense[off]++
			}
		}
	}
	p.n += o.n
}

// Histogram records uint64 cycle values with exact percentile recovery.
// The zero value is unusable; construct with NewHistogram.
type Histogram struct {
	max   uint64      // values >= max clamp into the last bucket
	pages []*histPage // up to the highest page recorded; nil where empty

	count     uint64
	sum       uint64
	min       uint64
	maxSeen   uint64
	saturated uint64
}

// NewHistogram returns a histogram covering [0, max) cycles exactly; values
// at or beyond max are clamped and counted as saturated. max is rounded up
// to a whole number of radix pages. Memory grows with the samples recorded,
// not with max.
func NewHistogram(max uint64) *Histogram {
	if max == 0 {
		max = histPageSize
	}
	npages := (max + histPageSize - 1) / histPageSize
	return &Histogram{max: npages * histPageSize}
}

// page returns page pi, growing the table and allocating the page on first
// use.
func (h *Histogram) page(pi uint64) *histPage {
	if pi >= uint64(len(h.pages)) {
		h.pages = append(h.pages, make([]*histPage, pi+1-uint64(len(h.pages)))...)
	}
	p := h.pages[pi]
	if p == nil {
		p = new(histPage)
		h.pages[pi] = p
	}
	return p
}

// Record adds one value. Values at or beyond the histogram's range clamp
// into the final bucket and bump the saturation counter.
func (h *Histogram) Record(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.maxSeen {
		h.maxSeen = v
	}
	h.count++
	h.sum += v
	if v >= h.max {
		h.saturated++
		v = h.max - 1
	}
	h.page(v >> histPageBits).add(uint16(v & (histPageSize - 1)))
}

// Count reports how many values were recorded.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the sum of all recorded values (before clamping).
func (h *Histogram) Sum() uint64 { return h.sum }

// Min reports the smallest recorded value (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest recorded value (before clamping; 0 when empty).
func (h *Histogram) Max() uint64 { return h.maxSeen }

// Saturated reports how many recorded values fell beyond the histogram's
// range and were clamped into the final bucket.
func (h *Histogram) Saturated() uint64 { return h.saturated }

// Mean reports the arithmetic mean of recorded values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns the exact q-quantile (0 < q <= 1) by nearest rank: the
// value at index ceil(q*n)-1 of the sorted sequence of recorded values.
// Saturated values report max-1 (their clamped bucket). q <= 0 returns the
// minimum recorded value; an empty histogram returns 0. It neither writes
// the histogram nor allocates, so it may read a live one.
func (h *Histogram) Percentile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(1)
	if q > 0 {
		r := q * float64(h.count)
		rank = uint64(r)
		if float64(rank) < r {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		if rank > h.count {
			rank = h.count
		}
	}
	var seen uint64
	for pi, p := range h.pages {
		if p == nil {
			continue
		}
		// Step over whole pages until the target rank falls inside one.
		if seen+p.n < rank {
			seen += p.n
			continue
		}
		counts := p.dense
		if counts == nil {
			var local [histPageSize]uint32
			for _, off := range p.offs {
				local[off]++
			}
			counts = &local
		}
		for bi, c := range counts {
			seen += uint64(c)
			if seen >= rank {
				return uint64(pi)<<histPageBits | uint64(bi)
			}
		}
	}
	// Unreachable: every recorded value lives in some bucket.
	return h.max - 1
}

// Merge adds every sample of o into h. The histograms must have the same
// range; Merge panics otherwise (merging differently-clamped tails would
// silently corrupt the percentiles).
func (h *Histogram) Merge(o *Histogram) {
	if h.max != o.max {
		panic("metrics: merging histograms with different ranges")
	}
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.maxSeen > h.maxSeen {
		h.maxSeen = o.maxSeen
	}
	h.count += o.count
	h.sum += o.sum
	h.saturated += o.saturated
	for pi, op := range o.pages {
		if op != nil {
			h.page(uint64(pi)).merge(op)
		}
	}
}
