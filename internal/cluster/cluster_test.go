package cluster

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"autarky/internal/sim"
)

func TestInitClusters(t *testing.T) {
	r := NewRegistry()
	ids, err := r.InitClusters(3, 8)
	if err != nil || len(ids) != 3 {
		t.Fatalf("InitClusters: %v %v", ids, err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	for _, id := range ids {
		c, ok := r.Cluster(id)
		if !ok || c.Len() != 0 {
			t.Fatalf("cluster %d: %v %v", id, c, ok)
		}
	}
	if _, err := r.InitClusters(0, 1); err == nil {
		t.Fatal("InitClusters(0) accepted")
	}
}

func TestAddRemovePage(t *testing.T) {
	r := NewRegistry()
	id := r.NewCluster(2)
	if err := r.AddPage(id, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.AddPage(id, 10); err != nil {
		t.Fatal("duplicate add must be a no-op")
	}
	if err := r.AddPage(id, 11); err != nil {
		t.Fatal(err)
	}
	if err := r.AddPage(id, 12); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity add: %v", err)
	}
	if got := r.AppendClusterIDs(nil, 10); len(got) != 1 || got[0] != id {
		t.Fatalf("AppendClusterIDs = %v", got)
	}
	if err := r.RemovePage(id, 10); err != nil {
		t.Fatal(err)
	}
	if len(r.AppendClusterIDs(nil, 10)) != 0 {
		t.Fatal("page still clustered after removal")
	}
	if err := r.RemovePage(id, 99); err != nil {
		t.Fatal("removing absent page must be a no-op")
	}
	if err := r.AddPage(999, 1); !errors.Is(err, ErrNoCluster) {
		t.Fatalf("unknown cluster: %v", err)
	}
}

func TestSharedPageMembership(t *testing.T) {
	r := NewRegistry()
	a := r.NewCluster(0)
	b := r.NewCluster(0)
	r.AddPage(a, 1)
	r.AddPage(b, 1)
	ids := r.AppendClusterIDs(nil, 1)
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("shared membership = %v", ids)
	}
}

func TestReleaseClusters(t *testing.T) {
	r := NewRegistry()
	id := r.NewCluster(0)
	r.AddPage(id, 1)
	r.ReleaseClusters()
	if r.Len() != 0 || len(r.AppendClusterIDs(nil, 1)) != 0 {
		t.Fatal("release did not clear state")
	}
	if err := r.AddPage(id, 2); !errors.Is(err, ErrReleased) {
		t.Fatalf("mutation after release: %v", err)
	}
	if _, err := r.InitClusters(1, 1); !errors.Is(err, ErrReleased) {
		t.Fatalf("init after release: %v", err)
	}
}

func TestClosureUnclusteredPage(t *testing.T) {
	r := NewRegistry()
	got := r.AppendClosure(nil, 42)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("AppendClosure = %v", got)
	}
}

func TestClosureDisjointCluster(t *testing.T) {
	r := NewRegistry()
	a := r.NewCluster(0)
	for _, p := range []uint64{1, 2, 3} {
		r.AddPage(a, p)
	}
	b := r.NewCluster(0)
	for _, p := range []uint64{10, 11} {
		r.AddPage(b, p)
	}
	got := r.AppendClosure(nil, 2)
	want := []uint64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("AppendClosure = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendClosure = %v, want %v", got, want)
		}
	}
}

func TestClosureTransitiveSharing(t *testing.T) {
	// A={1,2}, B={2,3}, C={3,4}, D={9}: closure of 1 is A∪B∪C; D excluded.
	r := NewRegistry()
	a, b, c, d := r.NewCluster(0), r.NewCluster(0), r.NewCluster(0), r.NewCluster(0)
	r.AddPage(a, 1)
	r.AddPage(a, 2)
	r.AddPage(b, 2)
	r.AddPage(b, 3)
	r.AddPage(c, 3)
	r.AddPage(c, 4)
	r.AddPage(d, 9)
	got := r.AppendClosure(nil, 1)
	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("AppendClosure = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendClosure = %v, want %v", got, want)
		}
	}
}

func TestCheckInvariantDetectsViolation(t *testing.T) {
	r := NewRegistry()
	a := r.NewCluster(0)
	r.AddPage(a, 1)
	r.AddPage(a, 2)
	// Page 1 non-resident but page 2 resident: cluster A is partially
	// resident, and 1 has no fully-non-resident cluster — violation.
	resident := map[uint64]bool{2: true}
	err := r.CheckInvariant(func(vpn uint64) bool { return resident[vpn] })
	if err == nil {
		t.Fatal("violation not detected")
	}
	// All of A out: fine.
	resident[2] = false
	if err := r.CheckInvariant(func(vpn uint64) bool { return resident[vpn] }); err != nil {
		t.Fatalf("false positive: %v", err)
	}
	// All resident: fine.
	resident[1], resident[2] = true, true
	if err := r.CheckInvariant(func(vpn uint64) bool { return resident[vpn] }); err != nil {
		t.Fatalf("false positive: %v", err)
	}
}

func TestSharedEvictionIsSafe(t *testing.T) {
	// Paper §5.2.3: evicting a single cluster that shares pages is safe.
	r := NewRegistry()
	a, b := r.NewCluster(0), r.NewCluster(0)
	r.AddPage(a, 1)
	r.AddPage(a, 2)
	r.AddPage(b, 2)
	r.AddPage(b, 3)
	resident := map[uint64]bool{1: true, 2: true, 3: true}
	// Evict all of A (including shared page 2).
	for _, p := range []uint64{1, 2} {
		resident[p] = false
	}
	if err := r.CheckInvariant(func(vpn uint64) bool { return resident[vpn] }); err != nil {
		t.Fatalf("single-cluster eviction violated invariant: %v", err)
	}
}

// TestClosureFetchMaintainsInvariant is the central property test: over
// random cluster graphs with shared pages, random sequences of
// closure-fetches, whole-cluster evictions, and safe membership mutations
// (removing a resident page, registering a fresh page with a fully
// non-resident cluster) never violate the invariant.
func TestClosureFetchMaintainsInvariant(t *testing.T) {
	type scenario struct {
		Seed uint64
	}
	check := func(s scenario) bool {
		rng := sim.NewRand(s.Seed)
		r := NewRegistry()
		const pages = 40
		nclusters := rng.Intn(10) + 2
		ids := make([]ID, nclusters)
		for i := range ids {
			ids[i] = r.NewCluster(0)
		}
		// Every page joins 1-2 random clusters.
		for p := uint64(0); p < pages; p++ {
			n := rng.Intn(2) + 1
			for j := 0; j < n; j++ {
				if err := r.AddPage(ids[rng.Intn(nclusters)], p); err != nil {
					return false
				}
			}
		}
		resident := make(map[uint64]bool) // all start non-resident
		nextVPN := uint64(pages)          // fresh pages registered mid-run
		for step := 0; step < 200; step++ {
			switch rng.Intn(5) {
			case 0, 1:
				// Fault: fetch the closure.
				for _, vpn := range r.AppendClosure(nil, uint64(rng.Intn(pages))) {
					resident[vpn] = true
				}
			case 2:
				// Deregister a resident page from one of its clusters
				// (ay_remove_page on a page the runtime holds is always
				// safe: it cannot orphan a non-resident page).
				p := uint64(rng.Intn(pages))
				if cids := r.AppendClusterIDs(nil, p); resident[p] && len(cids) > 0 {
					if err := r.RemovePage(cids[rng.Intn(len(cids))], p); err != nil {
						return false
					}
				}
			case 3:
				// Register a brand-new (non-resident) page with a fully
				// non-resident cluster — the loader's ay_add_page pattern.
				cid := ids[rng.Intn(nclusters)]
				c, ok := r.Cluster(cid)
				if !ok {
					continue
				}
				allOut := true
				for _, vpn := range c.AppendPages(nil) {
					if resident[vpn] {
						allOut = false
						break
					}
				}
				if allOut {
					if err := r.AddPage(cid, nextVPN); err != nil {
						return false
					}
					nextVPN++
				}
			default:
				// Evict one whole cluster — safe even for clusters sharing
				// pages with partially resident neighbours.
				c, ok := r.Cluster(ids[rng.Intn(nclusters)])
				if !ok {
					continue
				}
				for _, vpn := range c.AppendPages(nil) {
					resident[vpn] = false
				}
			}
			if err := r.CheckInvariant(func(vpn uint64) bool { return resident[vpn] }); err != nil {
				t.Logf("seed %d step %d: %v", s.Seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterPagesSorted(t *testing.T) {
	r := NewRegistry()
	id := r.NewCluster(0)
	for _, p := range []uint64{5, 1, 9, 3} {
		r.AddPage(id, p)
	}
	c, _ := r.Cluster(id)
	pages := c.AppendPages(nil)
	for i := 1; i < len(pages); i++ {
		if pages[i-1] >= pages[i] {
			t.Fatalf("Pages not sorted: %v", pages)
		}
	}
}

// The append-style queries extend the caller's slice, leave its prefix
// alone, and — once the caller's slice and the registry's walk scratch are
// warm — allocate nothing.
func TestAppendQueriesExtendAndDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	a, b, c := r.NewCluster(0), r.NewCluster(0), r.NewCluster(0)
	for _, p := range []uint64{7, 3, 5} {
		r.AddPage(a, p)
	}
	r.AddPage(b, 5)
	r.AddPage(b, 8)
	r.AddPage(c, 20)

	prefix := []uint64{99}
	got := r.AppendClosure(prefix, 8)
	if want := []uint64{99, 3, 5, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("AppendClosure = %v, want %v", got, want)
	}
	if ids := r.AppendClusterIDs([]ID{c}, 5); !slices.Equal(ids, []ID{c, a, b}) {
		t.Fatalf("AppendClusterIDs = %v", ids)
	}
	ca, _ := r.Cluster(a)
	if pages := ca.AppendPages([]uint64{1}); !slices.Equal(pages, []uint64{1, 3, 5, 7}) {
		t.Fatalf("AppendPages = %v", pages)
	}

	vpns := make([]uint64, 0, 16)
	ids := make([]ID, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		vpns = r.AppendClosure(vpns[:0], 3)
		vpns = ca.AppendPages(vpns[:0])
		ids = r.AppendClusterIDs(ids[:0], 5)
	})
	if allocs != 0 {
		t.Fatalf("warm append queries allocate %.1f objects per call", allocs)
	}
}

func BenchmarkAppendClosureShared(b *testing.B) {
	r := NewRegistry()
	// A chain of 4-page clusters sharing one page with the next.
	prev := r.NewCluster(0)
	for p := uint64(0); p < 64; p++ {
		r.AddPage(prev, p)
		if p%4 == 3 {
			next := r.NewCluster(0)
			r.AddPage(next, p)
			prev = next
		}
	}
	var dst []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = r.AppendClosure(dst[:0], uint64(i%64))
	}
}

func BenchmarkAppendClosureDisjoint(b *testing.B) {
	r := NewRegistry()
	for p := uint64(0); p < 64; p += 4 {
		id := r.NewCluster(4)
		for q := p; q < p+4; q++ {
			r.AddPage(id, q)
		}
	}
	var dst []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = r.AppendClosure(dst[:0], uint64(i%64))
	}
}
