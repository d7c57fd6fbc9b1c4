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
// cluster (AppendClosure). Evicting a single cluster, even one sharing
// pages, is always safe.
package cluster

import (
	"errors"
	"fmt"
	"slices"
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
	cap   int      // 0 = unbounded
	pages []uint64 // ascending
	// walk stamps the last closure walk that reached the cluster.
	walk uint64
}

// Len reports the number of pages in the cluster.
func (c *Cluster) Len() int { return len(c.pages) }

// AppendPages appends the cluster's pages to dst in ascending order and
// returns the extended slice.
func (c *Cluster) AppendPages(dst []uint64) []uint64 { return append(dst, c.pages...) }

// Registry manages the clusters of one enclave. It implements the Table 1
// API: InitClusters (ay_init_clusters), ReleaseClusters
// (ay_release_clusters), AddPage (ay_add_page), RemovePage
// (ay_remove_page), AppendClusterIDs (ay_get_cluster_ids).
//
// The fault-path queries (AppendClusterIDs, AppendClosure,
// Cluster.AppendPages) append to a caller's slice and walk with
// registry-owned scratch, so a warm caller allocates nothing per fault.
type Registry struct {
	clusters map[ID]*Cluster
	byPage   map[uint64][]ID // ascending IDs
	nextID   ID
	released bool

	// Closure-walk scratch: the walk counter that stamps visited clusters,
	// and the work list.
	walks uint64
	work  []*Cluster
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
	r.clusters[id] = &Cluster{cap: size}
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
	at, dup := slices.BinarySearch(c.pages, vpn)
	if dup {
		return nil
	}
	if c.cap > 0 && len(c.pages) >= c.cap {
		return fmt.Errorf("%w: cluster %d at %d pages", ErrFull, id, c.cap)
	}
	c.pages = slices.Insert(c.pages, at, vpn)
	ids := r.byPage[vpn]
	i, _ := slices.BinarySearch(ids, id)
	r.byPage[vpn] = slices.Insert(ids, i, id)
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
	at, present := slices.BinarySearch(c.pages, vpn)
	if !present {
		return nil
	}
	c.pages = slices.Delete(c.pages, at, at+1)
	ids := r.byPage[vpn]
	if i, ok := slices.BinarySearch(ids, id); ok {
		ids = slices.Delete(ids, i, i+1)
	}
	if len(ids) == 0 {
		delete(r.byPage, vpn)
	} else {
		r.byPage[vpn] = ids
	}
	return nil
}

// AppendClusterIDs appends the IDs of all clusters containing the page to
// dst, in ascending ID order, and returns the extended slice
// (ay_get_cluster_ids).
func (r *Registry) AppendClusterIDs(dst []ID, vpn uint64) []ID {
	return append(dst, r.byPage[vpn]...)
}

// AppendClosure appends the transitive fetch set for a fault on vpn to dst
// and returns the extended slice: the pages of every cluster reachable from
// vpn through shared pages (paper §5.2.3: "it is crucial to fetch the
// transitive set of all clusters sharing pages with the faulting cluster
// and among themselves"). The appended pages are ascending and distinct;
// they include vpn itself. A page in no cluster yields just {vpn}.
func (r *Registry) AppendClosure(dst []uint64, vpn uint64) []uint64 {
	ids := r.byPage[vpn]
	if len(ids) == 0 {
		return append(dst, vpn)
	}
	r.walks++
	work := r.work[:0]
	for _, cid := range ids {
		c := r.clusters[cid]
		c.walk = r.walks
		work = append(work, c)
	}
	start := len(dst)
	for i := 0; i < len(work); i++ {
		c := work[i]
		dst = append(dst, c.pages...)
		for _, q := range c.pages {
			for _, cid := range r.byPage[q] {
				if n := r.clusters[cid]; n.walk != r.walks {
					n.walk = r.walks
					work = append(work, n)
				}
			}
		}
	}
	clear(work)
	r.work = work[:0]
	if len(work) > 1 {
		// Clusters sharing pages: merge into one ascending, distinct set.
		slices.Sort(dst[start:])
		dst = dst[:start+len(slices.Compact(dst[start:]))]
	}
	return dst
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
			for _, q := range r.clusters[cid].pages {
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
