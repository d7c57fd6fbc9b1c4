package autarky

import (
	"errors"
	"testing"
)

func namedImage(name string, heapPages int) AppImage {
	img := testImage(heapPages)
	img.Name = name
	return img
}

// sweepApp touches every heap page `rounds` times — enough enclave accesses
// for the quantum deadline to fire repeatedly.
func sweepApp(p *Proc, rounds int) func(*Context) {
	return func(ctx *Context) {
		for r := 0; r < rounds; r++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Load(va)
			}
		}
	}
}

func TestSpawnTimeSlicesCoResidentEnclaves(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024), WithQuantum(20_000))
	a, err := m.Spawn(namedImage("a", 8), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Spawn(namedImage("b", 8), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	a.Start(sweepApp(a, 1500))
	b.Start(sweepApp(b, 1500))
	if err := m.WaitAll(); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	for _, p := range []*Proc{a, b} {
		if !p.Done() {
			t.Fatalf("proc %s not done", p.Image.Name)
		}
		tm := p.Metrics()
		if tm.Preemptions == 0 || tm.Slices < 2 {
			t.Errorf("proc %s not time-sliced: %+v", p.Image.Name, tm)
		}
	}
	acct := m.Accounting()
	if err := acct.Check(); err != nil {
		t.Fatal(err)
	}
	if acct.TotalCycles != m.Cycles() {
		t.Fatalf("accounting total %d != machine cycles %d", acct.TotalCycles, m.Cycles())
	}
	if snap := m.Metrics(); counter(t, snap, "sched.preemptions") == 0 {
		t.Error("machine metrics missing scheduler preemptions")
	}
}

// TestScopesCountEachTenantOnce runs a self-paging tenant under a quota and
// a pin-all tenant on one scheduled machine. Each runtime's and each
// task's view counts only its own events — the pager's runtime counts what
// it counts running alone — and the machine's totals of the scoped
// counters are the tenants' views added up.
func TestScopesCountEachTenantOnce(t *testing.T) {
	pagerCfg := Config{SelfPaging: true, Policy: PolicyRateLimit, RateLimitBurst: 1 << 20, QuotaPages: 40}
	solo := NewMachine(WithEPCFrames(1024), WithQuantum(20_000))
	alone, err := solo.Spawn(namedImage("pager", 64), pagerCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := alone.Run(sweepApp(alone, 20)); err != nil {
		t.Fatal(err)
	}

	m := NewMachine(WithEPCFrames(1024), WithQuantum(20_000))
	pager, err := m.Spawn(namedImage("pager", 64), pagerCfg)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := m.Spawn(namedImage("pinned", 8), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	pager.Start(sweepApp(pager, 20))
	pinned.Start(sweepApp(pinned, 1500))
	if err := m.WaitAll(); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}

	machine, rtPager, rtPinned := m.Metrics(), pager.Runtime.Metrics(), pinned.Runtime.Metrics()
	if rtPager != alone.Runtime.Metrics() {
		t.Errorf("pager's runtime view changed with a co-tenant:\n got %v\nwant %v",
			rtPager.Counters, alone.Runtime.Metrics().Counters)
	}
	if counter(t, rtPager, "runtime.self_faults") == 0 {
		t.Fatal("the pager never self-paged")
	}
	if got := counter(t, rtPinned, "runtime.self_faults"); got != 0 {
		t.Errorf("pin-all tenant counts %d self faults, want 0", got)
	}
	for _, name := range []string{"runtime.handler_runs", "runtime.self_faults", "runtime.pages_fetched",
		"runtime.pages_evicted", "ratelimit.grants"} {
		if got, want := counter(t, machine, name), counter(t, rtPager, name)+counter(t, rtPinned, name); got != want {
			t.Errorf("machine %s = %d, want the runtimes' %d", name, got, want)
		}
	}

	tPager, tPinned := pager.Metrics(), pinned.Metrics()
	if tPager.Slices == 0 || tPinned.Slices == 0 || tPinned.Preemptions == 0 {
		t.Fatalf("tenants not time-sliced: %+v, %+v", tPager, tPinned)
	}
	if got, want := counter(t, machine, "sched.dispatches"), tPager.Slices+tPinned.Slices; got != want {
		t.Errorf("machine sched.dispatches = %d, want the tasks' %d", got, want)
	}
	if got, want := counter(t, machine, "sched.preemptions"), tPager.Preemptions+tPinned.Preemptions; got != want {
		t.Errorf("machine sched.preemptions = %d, want the tasks' %d", got, want)
	}
}

func TestSpawnRunIsStartPlusWait(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	p, err := m.Spawn(testImage(8), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := p.Run(func(ctx *Context) {
		ran = true
		ctx.Store(p.Heap.Page(0))
	}); err != nil || !ran {
		t.Fatalf("Run: err=%v ran=%v", err, ran)
	}
	if tm := p.Metrics(); tm.Cycles == 0 || !tm.Done {
		t.Fatalf("proc metrics empty after run: %+v", tm)
	}
}

// TestProcMetricsSpanEveryRun runs one process twice: its scheduling
// account covers both runs, so it holds every task cycle on the machine.
func TestProcMetricsSpanEveryRun(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024), WithQuantum(20_000))
	p, err := m.Spawn(namedImage("twice", 16), Config{SelfPaging: true, Policy: PolicyPinAll})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		if err := p.Run(sweepApp(p, 1500)); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	tm, acct := p.Metrics(), m.Accounting()
	if len(acct.Tasks) != 2 || tm.Cycles != acct.TaskCycles {
		t.Fatalf("proc account %d cycles over %d tasks holding %d", tm.Cycles, len(acct.Tasks), acct.TaskCycles)
	}
	if want := acct.Tasks[0].Slices + acct.Tasks[1].Slices; tm.Slices != want || !tm.Done {
		t.Fatalf("proc account %+v, want %d slices and done", tm, want)
	}
}

func TestSpawnPriorityPolicyOrdersCompletion(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024), WithScheduler(SchedPriority), WithQuantum(10_000))
	var order []string
	spawnAndStart := func(name string, pri int) *Proc {
		p, err := m.Spawn(namedImage(name, 8), Config{
			SelfPaging: true, Policy: PolicyPinAll, Priority: pri,
		})
		if err != nil {
			t.Fatal(err)
		}
		app := sweepApp(p, 800)
		return p.Start(func(ctx *Context) {
			app(ctx)
			order = append(order, name)
		})
	}
	spawnAndStart("lo", 0)
	spawnAndStart("hi", 3) // spawned second, finishes first
	if err := m.WaitAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "hi" || order[1] != "lo" {
		t.Fatalf("completion order %v, want [hi lo]", order)
	}
}

func TestSpawnSchedulerConfigErrors(t *testing.T) {
	m := NewMachine(WithEPCFrames(256), WithScheduler(SchedPolicy(42)))
	_, err := m.Spawn(testImage(4), Config{})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad policy = %v, want ErrBadConfig", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Scheduler" {
		t.Fatalf("bad policy did not carry *ConfigError{Scheduler}: %v", err)
	}

	m2 := NewMachine(WithEPCFrames(256))
	_, err = m2.Spawn(testImage(4), Config{Base: 0x10_0000_0123})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unaligned base = %v, want ErrBadConfig", err)
	}
	if !errors.As(err, &ce) || ce.Field != "Base" {
		t.Fatalf("unaligned base did not carry *ConfigError{Base}: %v", err)
	}
}

// TestStaticHypervisorFrameTaxonomy pins the guest frame-budget errors:
// non-positive budgets are config errors, over-assignment is EPC exhaustion.
func TestStaticHypervisorFrameTaxonomy(t *testing.T) {
	hv := NewHypervisor(64)
	if _, err := hv.CreateGuest(-1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative frames = %v, want ErrBadConfig", err)
	}
	if _, err := hv.CreateGuest(100_000); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("over-assignment = %v, want ErrEPCExhausted", err)
	}
}

func TestGuestsReturnsACopy(t *testing.T) {
	hv := NewHypervisor(256)
	if _, err := hv.CreateGuest(64); err != nil {
		t.Fatal(err)
	}
	gs := hv.Guests()
	gs[0] = nil
	if got := hv.Guests(); len(got) != 1 || got[0] == nil {
		t.Fatal("Guests exposed internal slice: caller mutation leaked in")
	}
}

func TestSpawnDeterminism(t *testing.T) {
	run := func() (uint64, SchedAccounting) {
		m := NewMachine(WithEPCFrames(1024), WithQuantum(12_000))
		a, err := m.Spawn(namedImage("a", 8), Config{SelfPaging: true, Policy: PolicyPinAll})
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Spawn(namedImage("b", 12), Config{SelfPaging: true, Policy: PolicyPinAll})
		if err != nil {
			t.Fatal(err)
		}
		a.Start(sweepApp(a, 900))
		b.Start(sweepApp(b, 700))
		if err := m.WaitAll(); err != nil {
			t.Fatal(err)
		}
		return m.Cycles(), m.Accounting()
	}
	c1, a1 := run()
	c2, a2 := run()
	if c1 != c2 {
		t.Fatalf("spawn runs diverged: %d vs %d cycles", c1, c2)
	}
	if len(a1.Tasks) != len(a2.Tasks) {
		t.Fatal("task counts diverged")
	}
	for i := range a1.Tasks {
		if a1.Tasks[i] != a2.Tasks[i] {
			t.Fatalf("task %d accounting diverged: %+v vs %+v", i, a1.Tasks[i], a2.Tasks[i])
		}
	}
}

// TestSpawnFailureUnwindsLoad: a load that fails after the kernel registered
// the enclave leaves nothing behind. A pin-all image cannot fit a 16-page
// quota, so Spawn fails; the kernel must then have forgotten the enclave,
// freed every EPC frame and accept a backend swap again.
func TestSpawnFailureUnwindsLoad(t *testing.T) {
	m := NewMachine(WithEPCFrames(256))
	img := AppImage{Name: "greedy", Libraries: []Library{{Name: "libg.so", Pages: 2}}, HeapPages: 64}
	_, err := m.Spawn(img, Config{SelfPaging: true, Policy: PolicyPinAll, QuotaPages: 16})
	if !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("Spawn = %v, want ErrEPCExhausted", err)
	}
	if p := m.Kernel.ProcAt(DefaultBase); p != nil {
		t.Fatalf("failed load left enclave %d registered", p.E.ID)
	}
	if free, total := m.Kernel.CPU.EPC.FreeFrames(), m.Kernel.CPU.EPC.NumFrames(); free != total {
		t.Fatalf("failed load left %d of %d EPC frames allocated", total-free, total)
	}
	if err := m.Kernel.SetBackend(m.Kernel.Backend()); err != nil {
		t.Fatalf("SetBackend after a failed load: %v", err)
	}
}
