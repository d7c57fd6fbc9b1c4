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
	if snap := m.Metrics(); snap.Counter(CntSchedPreemptions) == 0 {
		t.Error("machine metrics missing scheduler preemptions")
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
