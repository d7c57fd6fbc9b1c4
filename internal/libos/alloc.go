package libos

import (
	"fmt"
	"sort"

	"autarky/internal/cluster"
	"autarky/internal/mmu"
)

// Allocator is the libOS heap page allocator, extended with Autarky's
// automatic data clustering (paper §5.2.3): each allocated page is eagerly
// added to the current cluster until it reaches the configured size, at
// which point a new cluster starts; when enough pages are freed, clusters
// are merged to keep them near-full.
type Allocator struct {
	p           *Process
	heap        Region
	clusterSize int // 0 = automatic clustering disabled

	next    int   // bump pointer (page index into heap)
	free    []int // freed page indexes, reused before bumping
	current cluster.ID
	fill    int // pages in the current cluster

	allocated map[int]cluster.ID // page index -> cluster (NoID if unclustered)
}

func newAllocator(p *Process, heap Region, clusterSize int) *Allocator {
	return &Allocator{
		p:           p,
		heap:        heap,
		clusterSize: clusterSize,
		allocated:   make(map[int]cluster.ID),
	}
}

// AllocPages allocates n heap pages and returns their base addresses. With
// automatic clustering enabled, each page joins the eagerly filled current
// cluster.
func (a *Allocator) AllocPages(n int) ([]mmu.VAddr, error) {
	if n <= 0 {
		return nil, fmt.Errorf("libos: AllocPages(%d)", n)
	}
	if avail := len(a.free) + (a.heap.Pages - a.next); n > avail {
		return nil, fmt.Errorf("%w: heap exhausted (%d pages requested, %d available)", ErrQuotaExceeded, n, avail)
	}
	out := make([]mmu.VAddr, 0, n)
	for i := 0; i < n; i++ {
		idx, err := a.takePage()
		if err != nil {
			return nil, err
		}
		va := a.heap.Page(idx)
		cid := cluster.NoID
		if a.clusterSize > 0 {
			cid = a.clusterFor()
			if err := a.p.Reg.AddPage(cid, va.VPN()); err != nil {
				return nil, err
			}
			a.fill++
		}
		a.allocated[idx] = cid
		out = append(out, va)
	}
	return out, nil
}

func (a *Allocator) takePage() (int, error) {
	if len(a.free) > 0 {
		idx := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		return idx, nil
	}
	if a.next >= a.heap.Pages {
		return 0, fmt.Errorf("%w: heap exhausted (%d pages)", ErrQuotaExceeded, a.heap.Pages)
	}
	idx := a.next
	a.next++
	return idx, nil
}

func (a *Allocator) clusterFor() cluster.ID {
	if a.current == cluster.NoID || a.fill >= a.clusterSize {
		a.current = a.p.Reg.NewCluster(a.clusterSize)
		a.fill = 0
	}
	return a.current
}

// FreePages returns pages to the allocator, removing them from their
// clusters, and merges under-full clusters to keep clusters near capacity.
func (a *Allocator) FreePages(pages []mmu.VAddr) error {
	for _, va := range pages {
		if !a.heap.Contains(va) {
			return fmt.Errorf("libos: freeing non-heap page %s", va)
		}
		idx := int((va - a.heap.Base) / mmu.PageSize)
		cid, ok := a.allocated[idx]
		if !ok {
			return fmt.Errorf("libos: double free of %s", va)
		}
		if cid != cluster.NoID {
			if err := a.p.Reg.RemovePage(cid, va.VPN()); err != nil {
				return err
			}
			if cid == a.current && a.fill > 0 {
				a.fill--
			}
		}
		delete(a.allocated, idx)
		a.free = append(a.free, idx)
	}
	if a.clusterSize > 0 {
		return a.mergeClusters()
	}
	return nil
}

// mergeClusters coalesces under-half-full data clusters pairwise so the
// registry stays near-full ("when enough pages are freed, the libOS
// allocator merges clusters", §5.2.3).
func (a *Allocator) mergeClusters() error {
	// Collect data clusters (those referenced by the allocator) that are
	// under half capacity.
	counts := make(map[cluster.ID]int)
	for _, cid := range a.allocated {
		if cid != cluster.NoID {
			counts[cid]++
		}
	}
	var sparse []cluster.ID
	for cid, n := range counts {
		if n*2 < a.clusterSize && cid != a.current {
			sparse = append(sparse, cid)
		}
	}
	if len(sparse) < 2 {
		return nil
	}
	sort.Slice(sparse, func(i, j int) bool { return sparse[i] < sparse[j] })
	// Merge pairs: move pages of the second into the first while capacity
	// allows.
	for i := 0; i+1 < len(sparse); i += 2 {
		dst, src := sparse[i], sparse[i+1]
		srcCl, ok := a.p.Reg.Cluster(src)
		if !ok {
			continue
		}
		dstCl, _ := a.p.Reg.Cluster(dst)
		// Iterate a copy: the loop removes pages from srcCl.
		for _, vpn := range srcCl.AppendPages(nil) {
			if dstCl.Len() >= a.clusterSize {
				break
			}
			if err := a.p.Reg.RemovePage(src, vpn); err != nil {
				return err
			}
			if err := a.p.Reg.AddPage(dst, vpn); err != nil {
				return err
			}
			idx := int((mmu.PageOf(vpn) - a.heap.Base) / mmu.PageSize)
			a.allocated[idx] = dst
		}
	}
	return nil
}

// PageCluster reports which cluster a heap page belongs to.
func (a *Allocator) PageCluster(va mmu.VAddr) (cluster.ID, bool) {
	if !a.heap.Contains(va) {
		return cluster.NoID, false
	}
	cid, ok := a.allocated[int((va-a.heap.Base)/mmu.PageSize)]
	return cid, ok && cid != cluster.NoID
}

// Allocated reports the number of live heap pages.
func (a *Allocator) Allocated() int { return len(a.allocated) }
