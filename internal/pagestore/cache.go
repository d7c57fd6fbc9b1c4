package pagestore

import (
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// CachedBackend is a bounded write-back cache of sealed blobs layered over
// any inner PagingBackend. It absorbs the common controlled-channel-defense
// pattern where a page evicted under EPC pressure is faulted right back in:
// the re-fetch is served from the cache without paying the inner backend's
// cost (for an ORAM inner backend, without a tree access at all).
//
// The cache is write-back: an evicted blob lands in the cache and reaches
// the inner backend only when LRU pressure pushes it out. Replacement is a
// strict LRU over (enclave, page) keys, maintained with an intrusive list —
// entries live in one slice and link to each other by index, with no map
// iteration, so identical call sequences produce identical write-back order
// and identical cycle charges.
//
// The cache lives in untrusted memory and holds only sealed blobs; it needs
// no trust because the sealing layer authenticates whatever comes back.
//
// Per the PagingBackend ownership contract the cache copies every blob it
// retains. Entries and ciphertext buffers are recycled through free lists
// as entries are dropped or written back, so a cache in steady state
// allocates nothing per eviction.
type CachedBackend struct {
	inner    PagingBackend
	capacity int
	clock    *sim.Clock
	costs    sim.Costs
	meter    *metrics.Metrics

	index map[storeKey]int32 // key -> entry in ents
	ents  []cacheEntry
	// head is the most recent entry, tail the next write-back victim; -1
	// when the list is empty.
	head, tail int32
	freeEnts   []int32 // unlinked entries available to inserts

	// freeBufs recycles ciphertext buffers of dropped and written-back
	// entries into new inserts. Scratch below is reused across batch calls;
	// contents are only valid within one call.
	freeBufs [][]byte
	overflow []cacheEntry
	runBuf   []PageBlob
	missVAs  []mmu.VAddr
	missIdx  []int
	missBufs []Blob
}

// cacheEntry is one cached blob and its LRU links (indexes into ents).
type cacheEntry struct {
	key        storeKey
	blob       Blob
	prev, next int32
}

var _ PagingBackend = (*CachedBackend)(nil)

// NewCachedBackend builds a cache of at most capacity sealed blobs in front
// of inner. Capacity must be positive; the facade validates user-supplied
// sizes before they reach here.
func NewCachedBackend(inner PagingBackend, capacity int, clock *sim.Clock, costs sim.Costs) *CachedBackend {
	if capacity < 1 {
		panic(fmt.Sprintf("pagestore: cache capacity %d, want >= 1", capacity))
	}
	return &CachedBackend{
		inner:    inner,
		capacity: capacity,
		clock:    clock,
		costs:    costs,
		meter:    metrics.Of(clock),
		index:    make(map[storeKey]int32),
		head:     -1,
		tail:     -1,
	}
}

// Name implements PagingBackend.
func (c *CachedBackend) Name() string {
	return fmt.Sprintf("cache(%d)+%s", c.capacity, c.inner.Name())
}

// Evict implements PagingBackend.
func (c *CachedBackend) Evict(enclaveID uint64, va mmu.VAddr, b Blob) error {
	return EvictOne(c, enclaveID, va, b)
}

// Fetch implements PagingBackend.
func (c *CachedBackend) Fetch(enclaveID uint64, va mmu.VAddr) (Blob, error) {
	return FetchOne(c, enclaveID, va)
}

// Drop implements PagingBackend. The blob may live in the cache, in the
// inner backend, or both (a cached entry whose earlier incarnation was
// written back), so both levels are dropped.
func (c *CachedBackend) Drop(enclaveID uint64, va mmu.VAddr) error {
	c.clock.ChargeAs(sim.CatPaging, c.costs.BlobCacheLookup)
	k := key(enclaveID, va)
	if i, ok := c.index[k]; ok {
		c.freeBufs = append(c.freeBufs, c.remove(i).blob.Ciphertext[:0])
	}
	return c.inner.Drop(enclaveID, va)
}

// EvictBatch implements PagingBackend as one pipelined pass: all victims
// enter the cache first, then the accumulated overflow is written back to
// the inner backend in LRU (oldest-first) order, batching consecutive
// same-enclave runs. (Overflow can belong to a different enclave than the
// batch being evicted when co-resident enclaves share the backend.)
func (c *CachedBackend) EvictBatch(enclaveID uint64, pages []PageBlob) error {
	overflow := c.overflow[:0]
	for _, pb := range pages {
		c.clock.ChargeAs(sim.CatPaging, c.costs.BlobCacheLookup)
		c.meter.Inc(metrics.CntBackendStores)
		c.meter.Add(metrics.CntBackendBytes, uint64(len(pb.Blob.Ciphertext)))
		c.insert(key(enclaveID, pb.VA), pb.Blob)
		for len(c.index) > c.capacity {
			overflow = append(overflow, c.remove(c.tail))
		}
	}
	c.overflow = overflow
	if len(overflow) == 0 {
		return nil
	}
	c.clock.ChargeAs(sim.CatPaging, uint64(len(overflow))*c.costs.BlobCopy)
	for start := 0; start < len(overflow); {
		end := start + 1
		for end < len(overflow) && overflow[end].key.enclaveID == overflow[start].key.enclaveID {
			end++
		}
		run := c.runBuf[:0]
		for _, ent := range overflow[start:end] {
			run = append(run, PageBlob{VA: mmu.PageOf(ent.key.vpn), Blob: ent.blob})
		}
		c.runBuf = run
		if err := c.inner.EvictBatch(overflow[start].key.enclaveID, run); err != nil {
			return err
		}
		start = end
	}
	// The inner backend copied everything it kept; the popped entries'
	// buffers are free to back future inserts.
	for i := range overflow {
		c.freeBufs = append(c.freeBufs, overflow[i].blob.Ciphertext[:0])
	}
	return nil
}

// FetchBatch implements PagingBackend. A hit is served from the cache (the
// entry stays resident — it still holds the current sealed contents); the
// misses travel to the inner backend as one batch and pay the blob copy
// between levels. Misses do not populate the cache: only eviction traffic
// does, which is what makes the hit rate measure re-fetch absorption rather
// than read locality.
func (c *CachedBackend) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []Blob) error {
	missVAs := c.missVAs[:0]
	missIdx := c.missIdx[:0]
	for i, va := range pages {
		c.clock.ChargeAs(sim.CatPaging, c.costs.BlobCacheLookup)
		c.meter.Inc(metrics.CntBackendLoads)
		if e, ok := c.index[key(enclaveID, va)]; ok {
			c.moveToFront(e)
			out[i] = c.ents[e].blob
			c.meter.Inc(metrics.CntBackendHits)
			c.meter.Add(metrics.CntBackendBytes, uint64(len(out[i].Ciphertext)))
			continue
		}
		missVAs = append(missVAs, va)
		missIdx = append(missIdx, i)
	}
	c.missVAs, c.missIdx = missVAs, missIdx
	if len(missVAs) == 0 {
		return nil
	}
	if cap(c.missBufs) < len(missVAs) {
		c.missBufs = make([]Blob, len(missVAs))
	}
	fetched := c.missBufs[:len(missVAs)]
	if err := c.inner.FetchBatch(enclaveID, missVAs, fetched); err != nil {
		return err
	}
	c.clock.ChargeAs(sim.CatPaging, uint64(len(fetched))*c.costs.BlobCopy)
	for j, b := range fetched {
		out[missIdx[j]] = b
		c.meter.Inc(metrics.CntBackendMisses)
		c.meter.Add(metrics.CntBackendBytes, uint64(len(b.Ciphertext)))
	}
	return nil
}

// insert places (or refreshes) a blob at the MRU position, copying the
// ciphertext into cache-owned storage (reusing the entry's existing buffer
// on overwrite, a recycled one otherwise). The caller is responsible for
// flushing any resulting overflow.
func (c *CachedBackend) insert(k storeKey, b Blob) {
	if i, ok := c.index[k]; ok {
		ent := &c.ents[i]
		ent.blob.Ciphertext = append(ent.blob.Ciphertext[:0], b.Ciphertext...)
		ent.blob.Version = b.Version
		ent.blob.EnclaveID = b.EnclaveID
		c.moveToFront(i)
		return
	}
	var buf []byte
	if n := len(c.freeBufs); n > 0 {
		buf = c.freeBufs[n-1]
		c.freeBufs[n-1] = nil
		c.freeBufs = c.freeBufs[:n-1]
	}
	b.Ciphertext = append(buf, b.Ciphertext...)
	var i int32
	if n := len(c.freeEnts); n > 0 {
		i = c.freeEnts[n-1]
		c.freeEnts = c.freeEnts[:n-1]
	} else {
		i = int32(len(c.ents))
		c.ents = append(c.ents, cacheEntry{})
	}
	c.ents[i] = cacheEntry{key: k, blob: b}
	c.index[k] = i
	c.pushFront(i)
}

// remove unlinks entry i, releases its slot and returns its contents; the
// caller takes over the ciphertext buffer.
func (c *CachedBackend) remove(i int32) cacheEntry {
	c.unlink(i)
	ent := c.ents[i]
	c.ents[i] = cacheEntry{}
	delete(c.index, ent.key)
	c.freeEnts = append(c.freeEnts, i)
	return ent
}

func (c *CachedBackend) moveToFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *CachedBackend) pushFront(i int32) {
	e := &c.ents[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.ents[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *CachedBackend) unlink(i int32) {
	e := &c.ents[i]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}
