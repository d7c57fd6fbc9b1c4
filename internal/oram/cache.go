package oram

import (
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// Cache is the Autarky-enabled ORAM page cache (§5.2.2, §6): a large buffer
// of enclave-managed (pinned) pages holding recently used ORAM blocks.
// Because the Autarky ISA hides the enclave's page access trace, hits can
// access the cache directly without leaking; only misses run the ORAM
// protocol ("memory accesses are instrumented to perform a cache lookup and
// invoke the costly ORAM protocol only in the case of a cache miss").
//
// Fetching and evicting between cache and tree is an oblivious copy. Each
// cache slot owns one block buffer, allocated on the slot's first fill and
// reused by every block the slot holds after, so a warm cache allocates
// nothing per miss.
type Cache struct {
	oram     *PathORAM
	capacity int

	entries map[uint32]*centry
	// LRU ring: most recently used at the back.
	head, tail *centry

	clock *sim.Clock
	costs *sim.Costs
	m     *metrics.Metrics // the cache's scope of the machine registry

	// Touch, when set, is invoked with the cache slot index on every hit
	// and fill so the buffer's pages flow through the architectural access
	// path (cache pages are enclave-managed EPC pages).
	Touch func(slotIdx int, write bool) error

	slots    []centry // one per cache slot
	freeSlot []int
}

type centry struct {
	id         uint32
	data       []byte
	dirty      bool
	slot       int
	prev, next *centry
}

// NewCache wraps o with a cache of capacity blocks.
func NewCache(o *PathORAM, capacity int, clock *sim.Clock, costs *sim.Costs) *Cache {
	if capacity <= 0 {
		panic("oram: cache capacity must be positive")
	}
	c := &Cache{
		oram:     o,
		capacity: capacity,
		entries:  make(map[uint32]*centry, capacity),
		clock:    clock,
		costs:    costs,
		m:        metrics.Of(clock).Scope(),
		slots:    make([]centry, capacity),
	}
	for i := capacity - 1; i >= 0; i-- {
		c.slots[i].slot = i
		c.freeSlot = append(c.freeSlot, i)
	}
	return c
}

// Capacity reports the cache size in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// ORAM returns the underlying PathORAM.
func (c *Cache) ORAM() *PathORAM { return c.oram }

// Metrics returns this cache's counts: hits, misses, evictions and
// write-backs. The machine's snapshot includes them too.
func (c *Cache) Metrics() metrics.Snapshot { return c.m.Snapshot() }

func (c *Cache) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushBack(e *centry) {
	e.prev = c.tail
	e.next = nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

func (c *Cache) touch(e *centry, write bool) error {
	if c.Touch != nil {
		return c.Touch(e.slot, write)
	}
	return nil
}

// lookup returns the entry for id, running the miss path as needed.
func (c *Cache) lookup(id uint32) (*centry, error) {
	// The instrumented cache lookup is policy machinery, like the oblivious
	// scans it replaces.
	c.clock.ChargeAs(sim.CatPolicy, c.costs.ORAMCacheLookup)
	if e, ok := c.entries[id]; ok {
		c.m.Inc(metrics.CntORAMCacheHits)
		c.unlink(e)
		c.pushBack(e)
		return e, nil
	}
	c.m.Inc(metrics.CntORAMCacheMisses)

	// Make room: evict the LRU entry, writing it back through the ORAM if
	// dirty (clean pages skip writeback — "avoid writeback of clean pages").
	if len(c.entries) >= c.capacity {
		victim := c.head
		c.unlink(victim)
		delete(c.entries, victim.id)
		if victim.dirty {
			if err := c.oram.Access(victim.id, true, victim.data, nil); err != nil {
				return nil, err
			}
			c.m.Inc(metrics.CntORAMCacheWritebacks)
		}
		c.freeSlot = append(c.freeSlot, victim.slot)
		c.m.Inc(metrics.CntORAMCacheEvictions)
	}

	slot := c.freeSlot[len(c.freeSlot)-1]
	c.freeSlot = c.freeSlot[:len(c.freeSlot)-1]
	e := &c.slots[slot]
	if e.data == nil {
		e.data = make([]byte, c.oram.BlockSize())
	}
	if err := c.oram.Access(id, false, nil, e.data); err != nil {
		c.freeSlot = append(c.freeSlot, slot)
		return nil, err
	}
	e.id, e.dirty = id, false
	c.entries[id] = e
	c.pushBack(e)
	if err := c.touch(e, true); err != nil {
		return nil, err
	}
	return e, nil
}

// Read copies the block's contents into buf (up to block size).
func (c *Cache) Read(id uint32, buf []byte) error {
	e, err := c.lookup(id)
	if err != nil {
		return err
	}
	if err := c.touch(e, false); err != nil {
		return err
	}
	copy(buf, e.data)
	return nil
}

// Write replaces the first len(data) bytes of the block.
func (c *Cache) Write(id uint32, data []byte) error {
	if len(data) > c.oram.BlockSize() {
		return fmt.Errorf("oram: cache write of %d bytes exceeds block size %d", len(data), c.oram.BlockSize())
	}
	e, err := c.lookup(id)
	if err != nil {
		return err
	}
	if err := c.touch(e, true); err != nil {
		return err
	}
	copy(e.data, data)
	e.dirty = true
	return nil
}

// Flush writes every dirty cached block back through the ORAM (used at
// checkpoint/shutdown).
func (c *Cache) Flush() error {
	for e := c.head; e != nil; e = e.next {
		if e.dirty {
			if err := c.oram.Access(e.id, true, e.data, nil); err != nil {
				return err
			}
			e.dirty = false
			c.m.Inc(metrics.CntORAMCacheWritebacks)
		}
	}
	return nil
}
