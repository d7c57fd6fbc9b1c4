package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/fleet"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/service"
	"autarky/internal/sim"
)

// The serving experiments (E14–E16) share one request, one fleet layout
// and one way to total their servers.

// objPages is the object every request touches: a rate-limit miss on it is
// four page-granular faults, and E14's clusters policy sizes data clusters
// to match, so there it is one cluster fault.
const objPages = 4

// serveHistMax is the latency range every serving experiment records in:
// wide enough to resolve overload tails without clamping.
const serveHistMax = 1 << 28

// getHandler loads every page of object arg (modulo the objects heap holds)
// and replies with the object's address.
func getHandler(heap []mmu.VAddr) libos.Handler {
	return func(ctx *core.Context, arg uint64) (uint64, error) {
		obj := int(arg % uint64(len(heap)/objPages))
		for i := 0; i < objPages; i++ {
			ctx.Load(heap[obj*objPages+i])
		}
		return uint64(heap[obj*objPages]), nil
	}
}

// serveGets registers "get" over an incarnation's heap.
func serveGets(p *libos.Process) { p.Handle("get", getHandler(p.Heap.PageVAs())) }

// mixedArrivals is tenant i's arrival process: Poisson for even tenants,
// bursty for odd ones, with the same long-run mean.
func mixedArrivals(i int, meanGap float64, burst int) service.ArrivalProcess {
	if i%2 == 1 {
		return &service.Bursty{MeanGap: meanGap, Burst: burst}
	}
	return service.Poisson{MeanGap: meanGap}
}

// fleetNode is one machine of a fleet cell. A slow node pays double for
// software page crypto (cheaper fabs, slower AES paths), so a tenant adopted
// or restored there re-seals its pages at that price.
type fleetNode struct {
	frames int
	slow   bool
}

// newFleetCell builds a cell's fleet under the cell budget, with nodes
// m0, m1, ... as listed.
func newFleetCell(pol fleet.Policy, quantum uint64, nodes []fleetNode) *fleet.Fleet {
	clock := sim.NewClock()
	clock.SetLimit(CellBudget())
	f := fleet.New(clock, pol, quantum)
	fast := sim.DefaultCosts()
	slow := fast
	slow.SWEncryptPage *= 2
	slow.SWDecryptPage *= 2
	for i, n := range nodes {
		costs := fast
		if n.slow {
			costs = slow
		}
		f.AddNode(fmt.Sprintf("m%d", i), n.frames, costs)
	}
	return f
}

// servingTenant is tenant i of a fleet cell: a self-paging rate-limit
// enclave (one small library, heapPages of heap) serving under s.
func servingTenant(i, heapPages, quotaPages int, s fleet.Serving) *fleet.Tenant {
	name := fmt.Sprintf("tenant%d", i)
	t := &fleet.Tenant{
		Name: name,
		Image: libos.AppImage{
			Name:      name,
			Libraries: []libos.Library{{Name: "libserve.so", Pages: 2}},
			HeapPages: heapPages,
		},
		Config: libos.Config{
			SelfPaging:     true,
			Policy:         libos.PolicyRateLimit,
			QuotaPages:     quotaPages,
			RateLimitBurst: 1 << 40,
		},
	}
	return t.Serve(s)
}

// runFleetCell runs a fleet cell and records its snapshot under name. The
// cross-machine account is part of the experiment's contract, not just a
// test: a moved or restored tenant's shares must sum to its machine-clock
// account. A failure panics; runCells names the cell.
func runFleetCell(rec *cellRecorder, name string, f *fleet.Fleet) metrics.Snapshot {
	err := f.Run()
	if err == nil {
		err = f.CheckAccounting()
	}
	if err != nil {
		panic(fmt.Sprintf("%s: %v", name, err))
	}
	snap := metrics.Of(f.Clock()).Snapshot()
	rec.record(name, snap)
	return snap
}

// serverTotals is what a cell's servers add up to.
type serverTotals struct {
	offered, served, keepAlives uint64
	shed                        uint64 // backpressure refusals + deadline sheds
	pending                     uint64 // arrivals that never fired
	hist                        *metrics.Histogram
}

// sumServers totals servers, skipping a never-admitted tenant's nil one.
func sumServers(servers ...*service.Server) serverTotals {
	tot := serverTotals{hist: metrics.NewHistogram(serveHistMax)}
	for _, srv := range servers {
		if srv == nil {
			continue
		}
		st := srv.Stats()
		tot.offered += st.Offered
		tot.served += st.Served
		tot.keepAlives += st.KeepAlives
		tot.shed += st.Backpressure + st.Timeouts
		tot.pending += uint64(srv.PendingSchedule())
		tot.hist.Merge(srv.Hist())
	}
	return tot
}

// fleetServers lists a fleet's tenants' servers in registration order.
func fleetServers(f *fleet.Fleet) []*service.Server {
	var out []*service.Server
	for _, t := range f.Tenants() {
		out = append(out, t.Server())
	}
	return out
}
