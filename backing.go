package autarky

import (
	"fmt"

	"autarky/internal/oram"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// PagingBackend is the storage layer beneath every paging path: sealed page
// blobs move through it when pages leave and re-enter the EPC, on both the
// hardware EWB/ELDU path and the SGXv2 software self-paging path. Backends
// compose — see WithBackingStore for stacking a blob cache or an oblivious
// ORAM layer over the plain store. Machine.Kernel.Backend() exposes the
// installed stack. The plain store is silent; wrapping layers count the
// blobs and bytes that cross them in the backend.* counters.
type PagingBackend = pagestore.PagingBackend

// BackingKind names one layer of a backing-store stack.
type BackingKind int

// Backing-store layer kinds.
const (
	// BackingPlain is the terminal layer: the machine's in-RAM blob store.
	BackingPlain BackingKind = iota
	// BackingCached is a bounded write-back LRU cache of sealed blobs.
	BackingCached
	// BackingORAM hides which page each evict/fetch touches behind
	// PathORAM placement traffic.
	BackingORAM
)

// String names the kind.
func (k BackingKind) String() string {
	switch k {
	case BackingPlain:
		return "plain"
	case BackingCached:
		return "cached"
	case BackingORAM:
		return "oram"
	default:
		return fmt.Sprintf("BackingKind(%d)", int(k))
	}
}

// BackingStore describes one layer of the machine's paging-backend stack,
// outermost first: Inner is the layer beneath (nil means the plain store).
// Build specs with PlainBacking, CachedBacking and ORAMBacking rather than
// by hand.
type BackingStore struct {
	// Kind selects the layer implementation.
	Kind BackingKind
	// Size is the layer's capacity: cached = maximum blobs held, oram =
	// placement slots (pages swapped out at once). Plain ignores it.
	Size int
	// Inner is the layer beneath this one; nil terminates in the plain
	// store.
	Inner *BackingStore
}

// PlainBacking describes the default stack: just the in-RAM blob store.
func PlainBacking() *BackingStore { return &BackingStore{Kind: BackingPlain} }

// CachedBacking describes a write-back LRU cache of at most blobs sealed
// pages over inner (nil inner = the plain store).
func CachedBacking(blobs int, inner *BackingStore) *BackingStore {
	return &BackingStore{Kind: BackingCached, Size: blobs, Inner: inner}
}

// ORAMBacking describes an oblivious-placement layer with the given slot
// capacity over inner (nil inner = the plain store).
func ORAMBacking(slots int, inner *BackingStore) *BackingStore {
	return &BackingStore{Kind: BackingORAM, Size: slots, Inner: inner}
}

// WithBackingStore installs a paging-backend stack on the machine, replacing
// the default plain blob store. Invalid stacks — unknown kinds, non-positive
// layer sizes, layers under a plain terminator, or absurd nesting — are
// reported as a *ConfigError (errors.Is(err, ErrBadConfig)) from the first
// Spawn, because machine construction itself cannot fail.
//
//	m := autarky.NewMachine(autarky.WithBackingStore(
//		autarky.CachedBacking(64, autarky.ORAMBacking(512, nil))))
func WithBackingStore(spec *BackingStore) Option {
	return func(c *machineConfig) { c.backing = spec }
}

// maxBackingDepth bounds stack nesting; deeper specs are almost certainly a
// cycle built by hand.
const maxBackingDepth = 8

// backingSeed fixes the ORAM layer's path-randomness seed so machines are
// reproducible (like the default root secret).
const backingSeed = 0xB10B5EED

// buildBacking turns a spec into a backend stack terminating in store.
func buildBacking(spec *BackingStore, store *pagestore.Store, clock *sim.Clock, costs sim.Costs, depth int) (pagestore.PagingBackend, error) {
	if spec == nil {
		return store, nil
	}
	if depth >= maxBackingDepth {
		return nil, &ConfigError{Field: "BackingStore", Reason: fmt.Sprintf("stack deeper than %d layers (cycle?)", maxBackingDepth)}
	}
	switch spec.Kind {
	case BackingPlain:
		if spec.Inner != nil {
			return nil, &ConfigError{Field: "BackingStore", Reason: "plain layer must terminate the stack"}
		}
		if spec.Size != 0 {
			return nil, &ConfigError{Field: "BackingStore", Reason: "plain layer takes no size"}
		}
		return store, nil
	case BackingCached:
		if spec.Size < 1 {
			return nil, &ConfigError{Field: "BackingStore", Reason: fmt.Sprintf("cached layer needs capacity >= 1 blob, got %d", spec.Size)}
		}
		inner, err := buildBacking(spec.Inner, store, clock, costs, depth+1)
		if err != nil {
			return nil, err
		}
		return pagestore.NewCachedBackend(inner, spec.Size, clock, costs), nil
	case BackingORAM:
		if spec.Size < 1 {
			return nil, &ConfigError{Field: "BackingStore", Reason: fmt.Sprintf("oram layer needs >= 1 slot, got %d", spec.Size)}
		}
		inner, err := buildBacking(spec.Inner, store, clock, costs, depth+1)
		if err != nil {
			return nil, err
		}
		return oram.NewBackend(inner, spec.Size, clock, costs, backingSeed), nil
	default:
		return nil, &ConfigError{Field: "BackingStore", Reason: fmt.Sprintf("unknown layer kind %d", int(spec.Kind))}
	}
}
