package workloads

import (
	"fmt"
	"hash/fnv"

	"autarky/internal/core"
	"autarky/internal/sim"
)

// Memcached models the key-value server of §7.3 / Fig. 8: a slab-allocated
// store of 1 KiB items behind a hash index, serving YCSB workload C
// (100% GET) from a single thread. Item storage goes through a Backend so
// the same server runs over direct paged memory (baseline, rate-limit,
// clusters) or the cached software ORAM — the paper's four configurations.
type Memcached struct {
	Items    int
	ItemSize int // bytes; 1024 in the paper

	itemsPerPage int
	indexSlots   int // index pages at the front of the arena
	backend      Backend
	clock        *sim.Clock

	// perOpCycles models request parsing + protocol work per GET.
	perOpCycles uint64

	Gets uint64
}

// MemcachedConfig sizes the server.
type MemcachedConfig struct {
	Items    int
	ItemSize int
}

// MemcachedArenaPages returns the arena footprint for a configuration.
func MemcachedArenaPages(cfg MemcachedConfig) int {
	itemsPerPage := 4096 / cfg.ItemSize
	itemPages := (cfg.Items + itemsPerPage - 1) / itemsPerPage
	indexPages := (cfg.Items*8 + 4095) / 4096
	return itemPages + indexPages
}

// BuildMemcached populates the store over a backend arena, writing every
// item (the 400 MB load of §7.3).
func BuildMemcached(ctx *core.Context, backend Backend, clock *sim.Clock, cfg MemcachedConfig) (*Memcached, error) {
	if cfg.ItemSize <= 0 || cfg.ItemSize > 4096 {
		return nil, fmt.Errorf("workloads: memcached item size %d", cfg.ItemSize)
	}
	m := &Memcached{
		Items:        cfg.Items,
		ItemSize:     cfg.ItemSize,
		itemsPerPage: 4096 / cfg.ItemSize,
		backend:      backend,
		clock:        clock,
		perOpCycles:  250_000, // loopback YCSB round trip + protocol parse (~80 us)
	}
	m.indexSlots = (cfg.Items*8 + 4095) / 4096
	need := m.indexSlots + (cfg.Items+m.itemsPerPage-1)/m.itemsPerPage
	if backend.Slots() < need {
		return nil, fmt.Errorf("workloads: memcached needs %d arena pages, backend has %d", need, backend.Slots())
	}
	for i := 0; i < cfg.Items; i++ {
		backend.Touch(ctx, m.indexSlot(i), true)
		backend.Touch(ctx, m.itemSlot(i), true)
	}
	return m, nil
}

// KeyOf synthesizes key i.
func (m *Memcached) KeyOf(i int) string { return fmt.Sprintf("user%010d", i) }

func (m *Memcached) indexOf(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64()&0x7fffffffffffffff) % m.Items
}

func (m *Memcached) indexSlot(i int) int {
	return (i * 8) / 4096 % m.indexSlots
}

func (m *Memcached) itemSlot(i int) int {
	return m.indexSlots + i/m.itemsPerPage
}

// Get serves one request: hash-index probe, then the item page.
func (m *Memcached) Get(ctx *core.Context, keyIdx int) {
	m.Gets++
	m.clock.ChargeAmbient(m.perOpCycles)
	i := m.indexOf(m.KeyOf(keyIdx))
	m.backend.Touch(ctx, m.indexSlot(i), false)
	m.backend.Touch(ctx, m.itemSlot(keyIdx%m.Items), false)
	ctx.Progress(1)
}

// Set writes one item.
func (m *Memcached) Set(ctx *core.Context, keyIdx int) {
	m.clock.ChargeAmbient(m.perOpCycles)
	i := m.indexOf(m.KeyOf(keyIdx))
	m.backend.Touch(ctx, m.indexSlot(i), true)
	m.backend.Touch(ctx, m.itemSlot(keyIdx%m.Items), true)
	ctx.Progress(1)
}
