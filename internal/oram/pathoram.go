// Package oram implements the paper's software oblivious-RAM paging scheme
// (§5.2.2): a PathORAM [Stefanov et al.] over untrusted memory, plus the
// Autarky-enabled enclave-managed page cache that makes it practical.
//
// Two operating modes reproduce the paper's comparison:
//
//   - Cached (Autarky): the position map, stash and a large page cache are
//     enclave-managed EPC pages whose access pattern the modified hardware
//     hides, so they are accessed directly; only cache misses run the ORAM
//     protocol. This is the configuration that is IMPOSSIBLE without
//     Autarky: on vanilla SGX the OS observes accesses to EPC pages.
//   - Uncached (vanilla-SGX CoSMIX): every access runs the ORAM protocol,
//     and every access to the position map and stash must itself be
//     oblivious — a CMOV linear scan over the whole structure — because the
//     OS can observe page access patterns. The paper measured a 232×
//     slowdown for this mode.
package oram

import (
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// Stats counts ORAM-level events.
type Stats struct {
	ScanWords uint64
	StashPeak int
}

// PathORAM is a non-recursive PathORAM with bucket size Z over blocks of
// BlockSize bytes. The tree lives in untrusted memory; the position map and
// stash are trusted state (their access-pattern cost depends on the mode).
//
// Tree slots and the stash hold block IDs only; each block's payload lives
// in a per-ID table and never moves, which is what the protocol's
// re-encryption of every touched bucket amounts to in a model that charges
// the moves instead of performing them. A payload is materialized on its
// block's first non-empty write, so a tree whose blocks are only placed,
// never written (the paging backend's), holds no payload memory at all.
type PathORAM struct {
	numBlocks int
	blockSize int
	z         int
	levels    int // tree levels; leaves = 1 << (levels-1)
	leaves    int

	// tree holds z slots per bucket, bucket-major in heap order; a slot is
	// a block ID plus one, zero when empty.
	tree   []uint32
	posmap []uint32
	// stash holds block IDs in arrival order, so the greedy write-back and
	// the tree layout are a function of the access sequence alone.
	stash []uint32
	// data holds each block's payload; nil reads as zeroes.
	data [][]byte

	// Oblivious selects uncached mode: every posmap/stash access is charged
	// as a full linear oblivious scan.
	Oblivious bool
	// StashCap is the modelled stash scan length in uncached mode.
	StashCap int

	clock *sim.Clock
	costs *sim.Costs
	rng   *sim.Rand
	m     *metrics.Metrics

	Stats Stats
}

const invalidLeaf = ^uint32(0)

// New builds a PathORAM covering numBlocks blocks of blockSize bytes with
// bucket size z. The tree is sized to the next power of two of
// numBlocks (so there are at least as many leaves as blocks / z, the
// standard PathORAM provisioning).
func New(numBlocks, blockSize, z int, clock *sim.Clock, costs *sim.Costs, seed uint64) *PathORAM {
	if numBlocks <= 0 || blockSize <= 0 || z <= 0 {
		panic("oram: non-positive parameter")
	}
	leaves := 1
	levels := 1
	for leaves*z < numBlocks {
		leaves *= 2
		levels++
	}
	o := &PathORAM{
		numBlocks: numBlocks,
		blockSize: blockSize,
		z:         z,
		levels:    levels,
		leaves:    leaves,
		tree:      make([]uint32, (2*leaves-1)*z),
		posmap:    make([]uint32, numBlocks),
		data:      make([][]byte, numBlocks),
		StashCap:  256,
		clock:     clock,
		costs:     costs,
		rng:       sim.NewRand(seed),
		m:         metrics.Of(clock),
	}
	for i := range o.posmap {
		o.posmap[i] = invalidLeaf // not yet written
	}
	return o
}

// NumBlocks reports the logical block count.
func (o *PathORAM) NumBlocks() int { return o.numBlocks }

// BlockSize reports the block size in bytes.
func (o *PathORAM) BlockSize() int { return o.blockSize }

// Levels reports the tree depth (root inclusive).
func (o *PathORAM) Levels() int { return o.levels }

// bucket returns the z slots of the bucket at the given level (0 = root)
// on the path to leaf.
func (o *PathORAM) bucket(leaf uint32, level int) []uint32 {
	// Node index in a 1-based heap: walk down from root.
	node := 1
	for l := 0; l < level; l++ {
		bit := (leaf >> (o.levels - 2 - l)) & 1
		node = node*2 + int(bit)
	}
	i := (node - 1) * o.z
	return o.tree[i : i+o.z]
}

// pathContains reports whether the bucket at (level) on pathLeaf's path
// also lies on the path of blockLeaf (standard PathORAM placement test).
func (o *PathORAM) pathContains(pathLeaf, blockLeaf uint32, level int) bool {
	if level == 0 {
		return true
	}
	shift := o.levels - 1 - level
	return (pathLeaf >> shift) == (blockLeaf >> shift)
}

func (o *PathORAM) chargeScan(words int) {
	// Oblivious CMOV scans exist only to hide the access pattern: they are
	// the price of the policy, not useful compute or crypto.
	o.clock.ChargeAs(sim.CatPolicy, uint64(words)*o.costs.ObliviousWordScan)
	o.Stats.ScanWords += uint64(words)
}

func (o *PathORAM) chargeMove(n int) {
	// Path reads/writes re-encrypt every bucket touched.
	o.clock.ChargeAs(sim.CatCrypto, uint64(n)*o.costs.ORAMBlockMove)
}

// Access performs one ORAM access. When dst is non-nil the block's previous
// contents (zeroes for a never-written block) are copied into it, up to the
// block size; when write is true, src then replaces the first len(src)
// bytes of the block and the rest is kept. id must be < NumBlocks.
func (o *PathORAM) Access(id uint32, write bool, src, dst []byte) error {
	if int(id) >= o.numBlocks {
		return fmt.Errorf("oram: block %d out of range %d", id, o.numBlocks)
	}
	if write && len(src) > o.blockSize {
		return fmt.Errorf("oram: write of %d bytes exceeds block size %d", len(src), o.blockSize)
	}

	// Position map lookup + remap. Uncached mode pays a full oblivious scan
	// (CMOV over every entry); cached mode reads it directly because the
	// map lives in enclave-managed pages.
	if o.Oblivious {
		o.chargeScan(o.numBlocks)
	}
	leaf := o.posmap[id]
	newLeaf := uint32(o.rng.Intn(o.leaves))
	o.posmap[id] = newLeaf

	fresh := leaf == invalidLeaf
	if fresh {
		// Never written: nothing on any path; the block joins the stash
		// under its new position below. The protocol still walks a random
		// path with no payload on it — the dummy-access shape.
		o.m.Inc(metrics.CntORAMDummy)
		leaf = newLeaf
	} else {
		o.m.Inc(metrics.CntORAMReal)
	}

	// Read the whole path into the stash.
	for level := 0; level < o.levels; level++ {
		b := o.bucket(leaf, level)
		for i, s := range b {
			if s != 0 {
				o.stash = append(o.stash, s-1)
				b[i] = 0
			}
		}
	}
	o.chargeMove(o.levels * o.z)

	// Stash lookup. Uncached mode scans the whole (modelled) stash. The
	// block is in the stash now — read off its path, or fresh — and its
	// payload never moves.
	if o.Oblivious {
		o.chargeScan(o.StashCap)
	}
	if fresh {
		o.stash = append(o.stash, id)
	}
	blk := o.data[id]
	if dst != nil {
		n := copy(dst, blk)
		clear(dst[n:min(len(dst), o.blockSize)])
	}
	if write && len(src) > 0 {
		if blk == nil {
			blk = make([]byte, o.blockSize)
			o.data[id] = blk
		}
		copy(blk, src)
	}

	// Greedy write-back, deepest level first, taking stash blocks in
	// arrival order.
	for level := o.levels - 1; level >= 0; level-- {
		b := o.bucket(leaf, level)
		free := 0
		for _, s := range b {
			if s == 0 {
				free++
			}
		}
		if free == 0 {
			continue
		}
		keep := o.stash[:0]
		for _, sid := range o.stash {
			if free == 0 || !o.pathContains(leaf, o.posmap[sid], level) {
				keep = append(keep, sid)
				continue
			}
			for i := range b {
				if b[i] == 0 {
					b[i] = sid + 1
					free--
					break
				}
			}
		}
		o.stash = keep
	}
	o.chargeMove(o.levels * o.z)

	if len(o.stash) > o.Stats.StashPeak {
		o.Stats.StashPeak = len(o.stash)
	}
	return nil
}
