package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"autarky"
	"autarky/internal/metrics"
	"autarky/internal/service"
	"autarky/internal/ycsb"
)

// workload is a fixed amount of simulated work: the same requests, with the
// same arrival cycles, on every commit. Each of its cells builds a fresh
// machine or fleet (setup), runs every request to completion (run) and
// reads the result out (report).
type workload struct {
	name string
	// limit is the sojourn bound, in cycles, a served request must meet to
	// count towards slo_goodput. It was set on seed 1 so that goodput lands
	// in [0.95, 0.995].
	limit uint64
	// cells is how many independent systems, each from its own seed, one
	// rep runs back to back. More cells put more requests behind the tail
	// percentiles without holding more than one system in memory.
	cells int
	build func(seed uint64, cell int, scale float64, tr *tracer) (*rig, error)
}

// The workloads. Each stresses a different part of the stack; the README
// records why each was chosen and which per-layer metric should move which
// end-to-end metric on it.
var workloads = []workload{
	{name: "serve-paging", limit: 900_000, cells: 4, build: func(seed uint64, cell int, scale float64, tr *tracer) (*rig, error) {
		return buildServe(serveParams{
			tenants: 2, conns: 250, requests: scaled(60_000, scale), meanGap: 80_000, burst: 8,
			heap: 96, objects: 24, quantum: 60_000,
			config: autarky.Config{SelfPaging: true, Mech: autarky.MechSGX2, Policy: autarky.PolicyClusters,
				QuotaPages: 88, DataClusterPages: objPages},
		}, seed, tr)
	}},
	{name: "serve-resident", limit: 100_000, cells: 4, build: func(seed uint64, cell int, scale float64, tr *tracer) (*rig, error) {
		return buildServe(serveParams{
			tenants: 8, conns: 100, requests: scaled(75_000, scale), meanGap: 40_000, burst: 16,
			heap: 96, objects: 24, quantum: 60_000,
			config: autarky.Config{SelfPaging: true, Mech: autarky.MechSGX2, Policy: autarky.PolicyPinAll},
		}, seed, tr)
	}},
	{name: "kv-mixed", limit: 4_200_000, cells: 2, build: func(seed uint64, cell int, scale float64, tr *tracer) (*rig, error) {
		return buildServe(serveParams{
			tenants: 2, conns: 250, requests: scaled(60_000, scale), meanGap: 700_000,
			heap: 128, objects: 32, quantum: 60_000, kv: true,
			config: autarky.Config{SelfPaging: true, Mech: autarky.MechSGX1, Policy: autarky.PolicyClusters,
				QuotaPages: 88, DataClusterPages: objPages},
			backing: autarky.CachedBacking(64, autarky.ORAMBacking(512, nil)),
		}, seed, tr)
	}},
	{name: "fleet-chaos", limit: 5_000_000, cells: 12, build: func(seed uint64, cell int, scale float64, tr *tracer) (*rig, error) {
		return buildFleet(fleetParams{
			epcFrames: []int{100, 120, 140, 160, 180, 200, 220, 240},
			tenants:   12, conns: 4, requests: scaled(3_000, scale), meanGap: 1_000_000, admitGap: 400_000,
			heap: 48, quota: 44, quantum: 60_000, checkpointEvery: 24,
			freezes: 3, freezeCycles: 2_500_000, deadline: 1_500_000,
		}, seed, cell, tr)
	}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a request count for the small-scale test runs.
func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s < n {
		return max(s, 50)
	}
	return n
}

// objPages is the object size: every request touches one 4-page object,
// and the clusters policy sizes its data clusters to match.
const objPages = 4

// queueCap bounds each connection's queue; histRange is wide enough that
// no sojourn saturates the latency histogram (a check enforces it).
const (
	queueCap  = 256
	histRange = 1 << 28
)

// chaosSeed fixes the fleet's failure scenarios.
const chaosSeed = 0xC4A05

// subseed derives the independent stream number `stream` from the run seed
// (splitmix64), so tenants' schedules and key streams do not overlap.
func subseed(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// frontend is what the benchmark reads from a tenant's server: the facade
// Server on a machine, the service layer's server in a fleet.
type frontend interface {
	Stats() autarky.ServiceStats
	Hist() *autarky.Histogram
}

// tenant is one serving tenant's benchmark-side state.
type tenant struct {
	idx   int
	clock *autarky.Clock
	tr    *tracer
	heap  []autarky.VAddr
	front frontend
	svc   *service.Server // fleet tenants only

	// Simulated cycles across the benchmark's handler, and handler calls.
	handlerCycles, handlerCalls uint64

	// kv-mixed: the version last put to each key, and gets that read back
	// anything else.
	shadow     []uint32
	mismatches uint64
	tag        [8]byte
}

// handle wraps a request body as the enclave-resident handler: it times the
// request in simulated cycles and, when tracing, as a core.handler span.
// The request id is the argument's high half (tenant<<24 | request index),
// the object key its low half.
func (t *tenant) handle(body func(ctx *autarky.Context, key uint32) (uint64, error)) autarky.Handler {
	return func(ctx *autarky.Context, arg uint64) (uint64, error) {
		sp := t.tr.enterHandler(arg >> 32)
		start := t.clock.Cycles()
		ret, err := body(ctx, uint32(arg))
		t.handlerCycles += t.clock.Cycles() - start
		t.handlerCalls++
		t.tr.exitHandler(sp)
		return ret, err
	}
}

func (t *tenant) object(key uint32) []autarky.VAddr {
	return t.heap[int(key)*objPages : int(key+1)*objPages]
}

// get reads one object.
func (t *tenant) get(ctx *autarky.Context, key uint32) (uint64, error) {
	obj := t.object(key)
	for _, va := range obj {
		ctx.Load(va)
	}
	return uint64(obj[0]), nil
}

// kvTag is what a key's pages hold after its version-th put.
func kvTag(key, version uint32) uint64 {
	if version == 0 {
		return 0 // never written: the pages are still zero
	}
	return uint64(key)<<32 | uint64(version)
}

var errTagMismatch = errors.New("kv: page tag does not match the last put")

// kvPut writes the key's next version tag into all of its pages.
func (t *tenant) kvPut(ctx *autarky.Context, key uint32) (uint64, error) {
	v := t.shadow[key] + 1
	binary.LittleEndian.PutUint64(t.tag[:], kvTag(key, v))
	for _, va := range t.object(key) {
		ctx.Write(va, t.tag[:])
	}
	t.shadow[key] = v
	return uint64(v), nil
}

// kvGet reads the key's pages back and checks them against the shadow.
func (t *tenant) kvGet(ctx *autarky.Context, key uint32) (uint64, error) {
	want := kvTag(key, t.shadow[key])
	for _, va := range t.object(key) {
		ctx.Read(va, t.tag[:])
		if binary.LittleEndian.Uint64(t.tag[:]) != want {
			t.mismatches++
			return 0, errTagMismatch
		}
	}
	return want, nil
}

// rig is one freshly built system under test.
type rig struct {
	tenants  []*tenant
	requests int // open-loop requests per tenant
	run      func() error
	snapshot func() autarky.MetricsSnapshot
	// account checks the cycle balance sheet and returns the serving
	// tasks' scheduler-attributed cycles and the dispatch overhead.
	account func() (serving, overhead uint64, err error)
	fleet   *autarky.Fleet // nil on a single machine
	blobs   backendCounts
}

// serveParams sizes a single-machine serving workload.
type serveParams struct {
	tenants  int
	conns    int     // client connections per tenant
	requests int     // open-loop requests per tenant
	meanGap  float64 // mean cycles between one tenant's arrivals
	burst    int     // odd tenants arrive in bursts of this size; 0 = all Poisson
	heap     int     // heap pages
	objects  int     // 4-page objects the keys range over
	quantum  uint64
	config   autarky.Config
	backing  *autarky.BackingStore // nil = the plain store
	kv       bool                  // half put, half get over Zipf keys
}

func buildServe(p serveParams, seed uint64, tr *tracer) (*rig, error) {
	sp := tr.open(spNewMachine)
	m := autarky.NewMachine(autarky.WithQuantum(p.quantum), autarky.WithBackingStore(p.backing))
	tr.close(sp)
	r := &rig{
		requests: p.requests,
		run:      m.WaitAll,
		snapshot: m.Metrics,
		account: func() (uint64, uint64, error) {
			a := m.Accounting()
			return a.TaskCycles, a.SchedulerCycles, a.Check()
		},
	}
	if err := wrapBackend(m.Kernel, tr, &r.blobs); err != nil {
		return nil, err
	}
	servers := make([]*autarky.Server, p.tenants)
	for i := range servers {
		t := &tenant{idx: i, clock: m.Clock, tr: tr}
		opts := []autarky.ServeOption{autarky.WithQueueCap(queueCap), autarky.WithLatencyRange(histRange)}
		if p.kv {
			t.shadow = make([]uint32, p.objects)
			opts = append(opts, autarky.WithHandler("get", t.handle(t.kvGet)), autarky.WithHandler("put", t.handle(t.kvPut)))
		} else {
			opts = append(opts, autarky.WithHandler("get", t.handle(t.get)))
		}
		img := autarky.AppImage{
			Name:      fmt.Sprintf("tenant%d", i),
			Libraries: []autarky.Library{{Name: "libserve.so", Pages: 2}},
			HeapPages: p.heap,
		}
		sp := tr.open(spLoad)
		srv, err := m.Serve(img, p.config, opts...)
		tr.close(sp)
		if err != nil {
			return nil, fmt.Errorf("serve tenant %d: %w", i, err)
		}
		// Allocate through the libOS allocator, so the clusters policy sees
		// the heap as clustered data.
		if t.heap, err = srv.Proc().Alloc.AllocPages(p.heap); err != nil {
			return nil, fmt.Errorf("tenant %d heap: %w", i, err)
		}
		sp = tr.open(spDial)
		for c := 0; c < p.conns; c++ {
			if _, err := srv.Dial(); err != nil {
				return nil, fmt.Errorf("tenant %d dial: %w", i, err)
			}
		}
		tr.close(sp)
		t.front = srv
		servers[i] = srv
		r.tenants = append(r.tenants, t)
	}
	tapPreemptions(m.Kernel, tr)
	// Preload after every tenant is loaded, so all arrival clocks start
	// together.
	for i, srv := range servers {
		sp := tr.open(spPreload)
		err := srv.OpenLoop(p.openLoop(r.tenants[i], seed))
		tr.close(sp)
		if err != nil {
			return nil, fmt.Errorf("tenant %d preload: %w", i, err)
		}
	}
	return r, nil
}

// openLoop is tenant t's request schedule: even tenants Poisson, odd ones
// bursty, all at the same mean rate.
func (p serveParams) openLoop(t *tenant, seed uint64) autarky.OpenLoop {
	var arrivals autarky.ArrivalProcess = autarky.Poisson{MeanGap: p.meanGap}
	if p.burst > 0 && t.idx%2 == 1 {
		arrivals = &autarky.Bursty{MeanGap: p.meanGap, Burst: p.burst}
	}
	hi := uint64(t.idx) << 56
	objects := uint64(p.objects)
	next := func(i int, r *autarky.Rand) (string, uint64) {
		return "get", hi | uint64(i)<<32 | r.Uint64n(objects)
	}
	if p.kv {
		keys := ycsb.NewZipfian(p.objects, 0.99, subseed(seed, uint64(100+t.idx)))
		mix := ycsb.NewWorkload(keys, 0.5, subseed(seed, uint64(200+t.idx)))
		next = func(i int, _ *autarky.Rand) (string, uint64) {
			op := mix.Next()
			name := "put"
			if op.Read {
				name = "get"
			}
			return name, hi | uint64(i)<<32 | uint64(op.Key)
		}
	}
	return autarky.OpenLoop{Arrivals: arrivals, Requests: p.requests, Seed: subseed(seed, uint64(t.idx)), NextReq: next}
}

// fleetParams sizes the fleet workload.
type fleetParams struct {
	epcFrames       []int // one node per entry; odd nodes pay 2x software crypto
	tenants         int
	conns           int
	requests        int
	meanGap         float64
	admitGap        uint64 // cycles between tenant admissions
	heap, quota     int
	quantum         uint64
	checkpointEvery int

	freezes      int
	freezeCycles uint64
	deadline     uint64 // supervisor watchdog
}

func buildFleet(p fleetParams, seed uint64, cell int, tr *tracer) (*rig, error) {
	sp := tr.open(spNewFleet)
	f := autarky.NewFleet(
		autarky.WithPlacementPolicy(autarky.Watermark{High: 0.70, Low: 0.50, Cooldown: 50}),
		autarky.WithFleetQuantum(p.quantum),
		autarky.WithCheckpointEvery(p.checkpointEvery),
	)
	r := &rig{
		requests: p.requests,
		run:      f.Run,
		snapshot: func() autarky.MetricsSnapshot { return metrics.Of(f.Clock()).Snapshot() },
		account: func() (uint64, uint64, error) {
			a := f.Accounting()
			return a.TenantCycles, a.SchedCycles, f.CheckAccounting()
		},
		fleet: f,
	}
	for i, frames := range p.epcFrames {
		costs := autarky.DefaultCosts()
		if i%2 == 1 {
			costs.SWEncryptPage *= 2
			costs.SWDecryptPage *= 2
		}
		n := f.AddNode(fmt.Sprintf("m%d", i), frames, costs)
		if err := wrapBackend(n.Kernel, tr, &r.blobs); err != nil {
			return nil, err
		}
		tapPreemptions(n.Kernel, tr)
	}
	tr.close(sp)
	for i := 0; i < p.tenants; i++ {
		t := &tenant{idx: i, clock: f.Clock(), tr: tr}
		r.tenants = append(r.tenants, t)
		f.Add(&autarky.Tenant{
			Name: fmt.Sprintf("tenant%d", i),
			Image: autarky.AppImage{
				Name:      fmt.Sprintf("tenant%d", i),
				Libraries: []autarky.Library{{Name: "libserve.so", Pages: 2}},
				HeapPages: p.heap,
			},
			Config: autarky.Config{
				SelfPaging: true, Mech: autarky.MechSGX2, Policy: autarky.PolicyRateLimit,
				QuotaPages: p.quota, RateLimitBurst: 1 << 40,
			},
			AdmitAfter: uint64(i) * p.admitGap,
			Prepare: func(ft *autarky.Tenant, proc *autarky.Process, first bool) error {
				return p.prepare(t, ft, proc, first, seed)
			},
			Body:  func(_ *autarky.Tenant, proc *autarky.Process) error { return proc.Run(t.svc.Loop) },
			Pause: func(*autarky.Tenant) { t.svc.Drain() },
		})
	}
	sp = tr.open(spAttach)
	// The failure scenario is part of the workload, not of its input: cell
	// k always suffers the same failures, and the seed varies the traffic.
	// Failures land over the first three quarters of the arrival span.
	plan := autarky.ChaosPlan{
		Seed:         subseed(chaosSeed, uint64(cell)),
		Horizon:      uint64(float64(p.requests) * p.meanGap * 3 / 4),
		Freezes:      p.freezes,
		FreezeCycles: p.freezeCycles,
	}
	sched, err := plan.Build(len(p.epcFrames))
	if err == nil {
		err = autarky.AttachChaos(f, sched, &autarky.ChaosSupervisor{Deadline: p.deadline})
	}
	tr.close(sp)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return r, nil
}

// prepare wires a fleet tenant's incarnation: the handler on every one, the
// frontend on the first (later ones rebind it).
func (p fleetParams) prepare(t *tenant, ft *autarky.Tenant, proc *autarky.Process, first bool, seed uint64) error {
	t.heap = proc.Heap.PageVAs()
	proc.Handle("get", t.handle(t.get))
	if first {
		svc, err := service.New(proc, service.Options{QueueCap: queueCap, HistMax: histRange})
		if err != nil {
			return err
		}
		sp := t.tr.call(spDial)
		for c := 0; c < p.conns; c++ {
			if _, err := svc.Dial(); err != nil {
				return err
			}
		}
		t.tr.end(sp)
		hi := uint64(t.idx) << 56
		objects := uint64(p.heap / objPages)
		sp = t.tr.call(spPreload)
		err = svc.Preload(autarky.OpenLoop{
			Arrivals: autarky.Poisson{MeanGap: p.meanGap},
			Requests: p.requests,
			Seed:     subseed(seed, uint64(t.idx)),
			NextReq: func(i int, r *autarky.Rand) (string, uint64) {
				return "get", hi | uint64(i)<<32 | r.Uint64n(objects)
			},
		})
		t.tr.end(sp)
		if err != nil {
			return err
		}
		t.svc, t.front = svc, svc
	} else if err := t.svc.Rebind(proc); err != nil {
		return err
	}
	// The idle hook must follow the tenant to its current node.
	t.svc.Idle = ft.Node().Sched.Yield
	return nil
}
