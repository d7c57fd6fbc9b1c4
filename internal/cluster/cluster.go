// Package cluster implements Autarky's page-cluster abstraction
// (paper §5.2.3, Table 1): consistent sets of enclave-managed pages that
// are fetched and evicted together, so a fault reveals only the cluster,
// not the page.
//
// The security invariant the package maintains and checks:
//
//	for each non-resident page, there is at least one cluster to which it
//	belongs with all of its pages non-resident.
//
// The invariant is trivial for disjoint clusters; pages shared between
// clusters (typical for code: two libraries using a third) require fetching
// the transitive closure of clusters that share pages with the faulting
// cluster (Closure). Evicting a single cluster, even one sharing pages, is
// always safe.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// ID names a cluster. IDs are never reused within a Registry.
type ID int

// NoID is the zero ID, never assigned to a cluster.
const NoID ID = 0

// Errors returned by registry operations.
var (
	// ErrNoCluster is returned for operations on unknown cluster IDs.
	ErrNoCluster = errors.New("cluster: no such cluster")
	// ErrFull is returned when adding a page to a cluster at its size cap.
	ErrFull = errors.New("cluster: cluster is full")
	// ErrReleased is returned after ReleaseClusters.
	ErrReleased = errors.New("cluster: registry released")
)

// Cluster is one page cluster. Pages are virtual page numbers.
type Cluster struct {
	cap   int // 0 = unbounded
	pages map[uint64]struct{}
}

// Len reports the number of pages in the cluster.
func (c *Cluster) Len() int { return len(c.pages) }

// Pages returns the cluster's pages in ascending order.
func (c *Cluster) Pages() []uint64 {
	out := make([]uint64, 0, len(c.pages))
	for vpn := range c.pages {
		out = append(out, vpn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Registry manages the clusters of one enclave. It implements the Table 1
// API: InitClusters (ay_init_clusters), ReleaseClusters
// (ay_release_clusters), AddPage (ay_add_page), RemovePage
// (ay_remove_page), GetClusterIDs (ay_get_cluster_ids).
type Registry struct {
	clusters map[ID]*Cluster
	byPage   map[uint64][]ID
	nextID   ID
	released bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		clusters: make(map[ID]*Cluster),
		byPage:   make(map[uint64][]ID),
	}
}

// InitClusters creates n clusters with capacity size pages each (size 0
// means unbounded) and returns their IDs (ay_init_clusters).
func (r *Registry) InitClusters(n, size int) ([]ID, error) {
	if r.released {
		return nil, ErrReleased
	}
	if n <= 0 {
		return nil, fmt.Errorf("cluster: InitClusters(n=%d)", n)
	}
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = r.NewCluster(size)
	}
	return ids, nil
}

// NewCluster creates one cluster with the given capacity (0 = unbounded).
func (r *Registry) NewCluster(size int) ID {
	r.nextID++
	id := r.nextID
	r.clusters[id] = &Cluster{cap: size, pages: make(map[uint64]struct{})}
	return id
}

// ReleaseClusters drops all cluster state (ay_release_clusters). Subsequent
// mutations fail with ErrReleased.
func (r *Registry) ReleaseClusters() {
	r.clusters = make(map[ID]*Cluster)
	r.byPage = make(map[uint64][]ID)
	r.released = true
}

// Cluster returns a cluster by ID.
func (r *Registry) Cluster(id ID) (*Cluster, bool) {
	c, ok := r.clusters[id]
	return c, ok
}

// Len reports the number of clusters.
func (r *Registry) Len() int { return len(r.clusters) }

// AddPage registers a page (by VPN) with a cluster (ay_add_page). A page
// may belong to several clusters.
func (r *Registry) AddPage(id ID, vpn uint64) error {
	if r.released {
		return ErrReleased
	}
	c, ok := r.clusters[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoCluster, id)
	}
	if _, dup := c.pages[vpn]; dup {
		return nil
	}
	if c.cap > 0 && len(c.pages) >= c.cap {
		return fmt.Errorf("%w: cluster %d at %d pages", ErrFull, id, c.cap)
	}
	c.pages[vpn] = struct{}{}
	r.byPage[vpn] = append(r.byPage[vpn], id)
	return nil
}

// RemovePage de-registers a page from a cluster (ay_remove_page).
func (r *Registry) RemovePage(id ID, vpn uint64) error {
	if r.released {
		return ErrReleased
	}
	c, ok := r.clusters[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoCluster, id)
	}
	if _, present := c.pages[vpn]; !present {
		return nil
	}
	delete(c.pages, vpn)
	ids := r.byPage[vpn]
	for i, cid := range ids {
		if cid == id {
			r.byPage[vpn] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(r.byPage[vpn]) == 0 {
		delete(r.byPage, vpn)
	}
	return nil
}

// GetClusterIDs returns all clusters containing the page, in ascending ID
// order (ay_get_cluster_ids).
func (r *Registry) GetClusterIDs(vpn uint64) []ID {
	ids := append([]ID(nil), r.byPage[vpn]...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Clustered reports whether the page belongs to any cluster.
func (r *Registry) Clustered(vpn uint64) bool { return len(r.byPage[vpn]) > 0 }

// Closure returns the transitive fetch set for a fault on vpn: the pages of
// every cluster reachable from vpn through shared pages (paper §5.2.3:
// "it is crucial to fetch the transitive set of all clusters sharing pages
// with the faulting cluster and among themselves"). The result is sorted;
// it includes vpn itself. A page in no cluster yields just {vpn}.
func (r *Registry) Closure(vpn uint64) []uint64 {
	if !r.Clustered(vpn) {
		return []uint64{vpn}
	}
	seenPages := map[uint64]struct{}{vpn: {}}
	seenClusters := make(map[ID]struct{})
	work := []uint64{vpn}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for _, cid := range r.byPage[p] {
			if _, done := seenClusters[cid]; done {
				continue
			}
			seenClusters[cid] = struct{}{}
			for q := range r.clusters[cid].pages {
				if _, done := seenPages[q]; !done {
					seenPages[q] = struct{}{}
					work = append(work, q)
				}
			}
		}
	}
	out := make([]uint64, 0, len(seenPages))
	for p := range seenPages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClosureClusters returns the IDs of the clusters included in Closure(vpn).
func (r *Registry) ClosureClusters(vpn uint64) []ID {
	seenClusters := make(map[ID]struct{})
	seenPages := map[uint64]struct{}{vpn: {}}
	work := []uint64{vpn}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for _, cid := range r.byPage[p] {
			if _, done := seenClusters[cid]; done {
				continue
			}
			seenClusters[cid] = struct{}{}
			for q := range r.clusters[cid].pages {
				if _, done := seenPages[q]; !done {
					seenPages[q] = struct{}{}
					work = append(work, q)
				}
			}
		}
	}
	out := make([]ID, 0, len(seenClusters))
	for id := range seenClusters {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckInvariant verifies the cluster security invariant against a
// residence predicate: every non-resident clustered page must belong to at
// least one cluster whose pages are all non-resident. It returns a
// descriptive error for the first violation.
func (r *Registry) CheckInvariant(resident func(vpn uint64) bool) error {
	for vpn, ids := range r.byPage {
		if resident(vpn) {
			continue
		}
		ok := false
		for _, cid := range ids {
			allOut := true
			for q := range r.clusters[cid].pages {
				if resident(q) {
					allOut = false
					break
				}
			}
			if allOut {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("cluster: invariant violated: non-resident page %#x has no fully non-resident cluster", vpn)
		}
	}
	return nil
}
