// Package sim provides the deterministic simulation substrate shared by the
// whole Autarky model: a logical cycle clock, the calibrated cost model for
// SGX and MMU operations, and a reproducible random-number source.
//
// All performance results in this repository are ratios of cycle counts
// accumulated on a Clock. The simulation is fully deterministic: two runs
// with the same seed and parameters produce byte-identical results.
package sim

import (
	"fmt"
	"math"
)

// Category labels where advanced cycles are attributed. Every charge lands
// in a bucket — ChargeAmbient in the clock's ambient category (CatCompute
// unless a caller has scoped a different one with SetCategory), ChargeAs in
// an explicit one — so the attribution buckets always sum to the cycle
// count, the invariant internal/metrics builds on.
type Category uint8

// The attribution categories. NumCategories is the array size for bucket
// storage, not a real category.
const (
	CatCompute Category = iota // workload execution, translation, memory access
	CatPaging                  // SGX paging instructions and page-movement work
	CatCrypto                  // page encryption/decryption (EWB/ELDU payload, SGX2 software crypto)
	CatFault                   // fault delivery: AEX, transitions, OS fault path, handler upcalls
	CatPolicy                  // self-paging policy overhead: ORAM scans, stash and cache management
	NumCategories
)

var categoryNames = [NumCategories]string{"compute", "paging", "crypto", "fault", "policy"}

// String returns the category's stable label (the JSON key in snapshots).
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Buckets holds per-category cycle totals, indexed by Category.
type Buckets [NumCategories]uint64

// Sum returns the total cycles across all buckets.
func (b Buckets) Sum() uint64 {
	var s uint64
	for _, v := range b {
		s += v
	}
	return s
}

// Clock is a monotonic logical cycle counter. It is the only notion of time
// in the simulation; wall-clock time is never consulted.
//
// Clock is not safe for concurrent use. The simulated machine is a single
// logical hart (matching the paper's single-thread evaluation of the
// runtime); workload-level concurrency is modelled by interleaving, not by
// goroutines mutating a shared clock.
type Clock struct {
	cycles  uint64
	limit   uint64
	cat     Category
	buckets Buckets
	meter   Meter
}

// Meter is the typed attachment point for the per-machine metrics registry
// a Clock carries on behalf of its machine (see internal/metrics.Of). The
// clock never charges through the meter — charging updates the flat
// attribution buckets directly, so the hot path is two array adds — but a
// typed hook means components recovering the registry perform a checked
// interface conversion instead of a blind assertion on an `any` field.
type Meter interface {
	// MeterName identifies the registry implementation, for error messages
	// when a component finds an unexpected meter attached to its clock.
	MeterName() string
}

// NewClock returns a clock at cycle zero.
func NewClock() *Clock { return &Clock{} }

// LimitError is the panic value raised when a clock crosses its cycle
// limit. The experiments recover it into an error naming the cell, so a
// runaway cell aborts its own machine without killing the suite.
type LimitError struct {
	Limit uint64 // the armed budget
	At    uint64 // the cycle count that crossed it
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sim: cycle limit %d exceeded at cycle %d", e.Limit, e.At)
}

// SetLimit arms a cooperative cycle budget: once the clock accumulates
// more than limit cycles, any charge panics with a *LimitError. A limit of
// zero disarms the budget.
func (c *Clock) SetLimit(limit uint64) { c.limit = limit }

// Room reports how many more cycles can be charged without crossing the
// limit (math.MaxUint64 when none is armed), so a caller that replays a run
// of charges can tell in advance, or size the run so, that none of them
// will raise a LimitError.
func (c *Clock) Room() uint64 {
	switch {
	case c.limit == 0:
		return math.MaxUint64
	case c.cycles >= c.limit:
		return 0
	}
	return c.limit - c.cycles
}

// ChargeAmbient adds n cycles to the clock, attributed to the ambient
// category. This is the single ambient charge entry point: the name marks
// category inheritance as deliberate (e.g. an EENTER is fault-handling on
// the fault path but compute at top-level entry), and it is greppable, so
// reviewers can audit every such decision. Both the total and the bucket
// are updated before any limit panic, so the attribution invariant (sum of
// buckets == cycles) holds even when a cell aborts on its budget.
func (c *Clock) ChargeAmbient(n uint64) {
	c.buckets[c.cat] += n
	c.cycles += n
	if c.limit != 0 && c.cycles > c.limit {
		panic(&LimitError{Limit: c.limit, At: c.cycles})
	}
}

// ChargeAs advances the clock with the cycles attributed to an explicit
// category, regardless of the ambient one. It is the memory-access fast
// path — a bucket add and a counter add, no category save/restore —
// so per-access charging costs the same as a plain increment.
func (c *Clock) ChargeAs(cat Category, n uint64) {
	c.buckets[cat] += n
	c.cycles += n
	if c.limit != 0 && c.cycles > c.limit {
		panic(&LimitError{Limit: c.limit, At: c.cycles})
	}
}

// SetCategory sets the ambient attribution category and returns the
// previous one, so a scope is one line to open and one deferred line to
// close:
//
//	defer clock.SetCategory(clock.SetCategory(sim.CatFault))
func (c *Clock) SetCategory(cat Category) Category {
	prev := c.cat
	c.cat = cat
	return prev
}

// Category reports the ambient attribution category.
func (c *Clock) Category() Category { return c.cat }

// Buckets returns the per-category cycle totals. The sum always equals
// Cycles().
func (c *Clock) Buckets() Buckets { return c.buckets }

// SetMeter attaches the per-machine metrics registry to the clock (see
// internal/metrics.Of). The clock itself never charges through it; carrying
// it here lets every component that already receives the clock reach the
// same registry without new constructor parameters.
func (c *Clock) SetMeter(m Meter) { c.meter = m }

// Meter returns the attached metrics registry, or nil.
func (c *Clock) Meter() Meter { return c.meter }

// Cycles reports the current cycle count.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Reset rewinds the clock to zero, clearing the attribution buckets and
// restoring the ambient category, so the attribution invariant is
// re-established at zero. The attached meter (if any) is kept.
func (c *Clock) Reset() {
	c.cycles = 0
	c.cat = CatCompute
	c.buckets = Buckets{}
}

// Since reports the cycles elapsed since the given earlier reading.
// It panics if start is in the future, which always indicates a bug in the
// caller (readings from a different clock or a missed Reset).
func (c *Clock) Since(start uint64) uint64 {
	if start > c.cycles {
		panic(fmt.Sprintf("sim: Since(%d) with clock at %d", start, c.cycles))
	}
	return c.cycles - start
}

// Stopwatch measures a span of cycles on a clock.
type Stopwatch struct {
	clock *Clock
	start uint64
}

// NewStopwatch starts measuring from the clock's current cycle.
func NewStopwatch(c *Clock) Stopwatch {
	return Stopwatch{clock: c, start: c.Cycles()}
}

// Elapsed reports cycles since the stopwatch was created.
func (s Stopwatch) Elapsed() uint64 { return s.clock.Since(s.start) }
