package attack

import (
	"errors"
	"testing"

	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
	"autarky/internal/trace"
)

type machine struct {
	clock  *sim.Clock
	pt     *mmu.PageTable
	cpu    *sgx.CPU
	kernel *hostos.Kernel
}

func newMachine() *machine {
	k := hostos.NewHost(sim.NewClock(), sim.DefaultCosts(), hostos.DefaultGeometry(256), []byte("atk"))
	return &machine{clock: k.Clock, pt: k.PT, cpu: k.CPU, kernel: k}
}

// osFaults reports the enclave faults the OS has observed so far.
func (m *machine) osFaults() uint64 { return metrics.Of(m.clock).Count(metrics.CntOSFaults) }

type appRuntime struct{ app func() }

func (a *appRuntime) OnEntry(tcs *sgx.TCS) {
	if tcs.CSSA() == 0 && a.app != nil {
		f := a.app
		a.app = nil
		f()
	}
}

const base = mmu.VAddr(0x300000)

func (m *machine) loadVictim(t *testing.T, pages int, selfPaging bool) (*hostos.Proc, *appRuntime) {
	t.Helper()
	attrs := sgx.Attributes(0)
	if selfPaging {
		attrs |= sgx.AttrSelfPaging
	}
	rt := &appRuntime{}
	p, err := m.kernel.LoadEnclave(hostos.EnclaveSpec{
		Base:     base,
		Size:     uint64(pages) * mmu.PageSize,
		Attrs:    attrs,
		Runtime:  rt,
		Segments: []hostos.Segment{{VA: base, Pages: pages, Perms: mmu.PermRWX}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, rt
}

// selfPagingRuntime imitates the Autarky runtime's attack stance: any
// exception entry on a resident page terminates.
type detectRuntime struct {
	cpu *sgx.CPU
	app func()
}

func (d *detectRuntime) OnEntry(tcs *sgx.TCS) {
	if tcs.CSSA() > 0 {
		if frame, ok := tcs.TopSSA(); ok && frame.Exit.Valid {
			d.cpu.Terminate(sgx.TerminateAttackDetected, "induced fault")
		}
		return
	}
	if d.app != nil {
		f := d.app
		d.app = nil
		f()
	}
}

func TestTracerCapturesAccessSequence(t *testing.T) {
	m := newMachine()
	p, rt := m.loadVictim(t, 8, false)
	targets := []mmu.VAddr{base, base + mmu.PageSize, base + 2*mmu.PageSize}
	tracer := NewPageFaultTracer(ModeUnmap, targets)
	m.kernel.Adversary = tracer

	sequence := []int{0, 1, 2, 1, 0, 2}
	rt.app = func() {
		tracer.Arm(m.kernel)
		for _, i := range sequence {
			if err := m.cpu.Touch(base+mmu.VAddr(i*mmu.PageSize), mmu.AccessRead); err != nil {
				t.Errorf("access: %v", err)
			}
		}
		tracer.Disarm(m.kernel)
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	got := tracer.Log.Pages()
	if len(got) != len(sequence) {
		t.Fatalf("trace %v, want %d events", got, len(sequence))
	}
	for i, idx := range sequence {
		if got[i] != base.VPN()+uint64(idx) {
			t.Fatalf("trace[%d] = %#x, want page %d", i, got[i], idx)
		}
	}
}

func TestTracerIgnoresUntrackedPages(t *testing.T) {
	m := newMachine()
	p, rt := m.loadVictim(t, 8, false)
	tracer := NewPageFaultTracer(ModeUnmap, []mmu.VAddr{base})
	m.kernel.Adversary = tracer
	rt.app = func() {
		tracer.Arm(m.kernel)
		_ = m.cpu.Touch(base+4*mmu.PageSize, mmu.AccessRead)
		_ = m.cpu.Touch(base, mmu.AccessRead)
		tracer.Disarm(m.kernel)
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if tracer.Log.Len() != 1 {
		t.Fatalf("trace has %d events", tracer.Log.Len())
	}
}

func TestTracerNoExecModeCapturesOnlyFetches(t *testing.T) {
	m := newMachine()
	p, rt := m.loadVictim(t, 4, false)
	tracer := NewPageFaultTracer(ModeNoExec, []mmu.VAddr{base})
	m.kernel.Adversary = tracer
	rt.app = func() {
		tracer.Arm(m.kernel)
		_ = m.cpu.Touch(base, mmu.AccessRead) // data read: no trap
		_ = m.cpu.Touch(base, mmu.AccessExec) // fetch: trap
		tracer.Disarm(m.kernel)
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if tracer.Log.Len() != 1 || tracer.Log.Events[0].Type != mmu.AccessExec {
		t.Fatalf("trace = %+v", tracer.Log.Events)
	}
	// Disarm restored exec permissions.
	pte, _ := m.pt.Get(base)
	if !pte.Perms.Allows(mmu.AccessExec) {
		t.Fatal("perms not restored on disarm")
	}
}

func TestTracerDetectedByAutarky(t *testing.T) {
	m := newMachine()
	rt := &detectRuntime{cpu: m.cpu}
	p, err := m.kernel.LoadEnclave(hostos.EnclaveSpec{
		Base:     base,
		Size:     4 * mmu.PageSize,
		Attrs:    sgx.AttrSelfPaging,
		Runtime:  rt,
		Segments: []hostos.Segment{{VA: base, Pages: 4, Perms: mmu.PermRW}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewPageFaultTracer(ModeUnmap, []mmu.VAddr{base})
	m.kernel.Adversary = tracer
	rt.app = func() {
		tracer.Arm(m.kernel)
		_ = m.cpu.Touch(base, mmu.AccessRead)
		t.Error("access completed despite attack")
	}
	runErr := m.kernel.Run(p)
	var term *sgx.TerminationError
	if !errors.As(runErr, &term) || term.Reason != sgx.TerminateAttackDetected {
		t.Fatalf("err = %v", runErr)
	}
	// The trace contains only the masked base address — zero information.
	for _, ev := range tracer.Log.Events {
		if ev.Addr != base {
			t.Fatalf("attacker learned %s", ev.Addr)
		}
	}
}

func TestADMonitorSeesAccessesWithoutFaults(t *testing.T) {
	m := newMachine()
	p, rt := m.loadVictim(t, 8, false)
	m.cpu.TimerInterval = 2
	pages := []mmu.VAddr{base, base + mmu.PageSize, base + 2*mmu.PageSize}
	mon := NewADBitMonitor(pages, true)
	m.kernel.Adversary = mon
	rt.app = func() {
		mon.Arm(m.kernel)
		for i := 0; i < 4; i++ {
			_ = m.cpu.Touch(base, mmu.AccessRead)
			_ = m.cpu.Touch(base+2*mmu.PageSize, mmu.AccessWrite)
		}
		mon.ScanNow(m.kernel)
		mon.Disarm()
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := m.osFaults(); got != 0 {
		t.Fatalf("silent attack induced %d faults", got)
	}
	seen := map[uint64]bool{}
	sawDirty := false
	for _, ev := range mon.Log.Events {
		seen[ev.Addr.VPN()] = true
		if ev.Kind == trace.KindDirtyBit {
			sawDirty = true
		}
	}
	if !seen[base.VPN()] || !seen[base.VPN()+2] {
		t.Fatalf("monitor missed accesses: %v", seen)
	}
	if seen[base.VPN()+1] {
		t.Fatal("monitor reported an untouched page")
	}
	if !sawDirty {
		t.Fatal("dirty-bit transition not observed")
	}
}

func TestADMonitorDetectedByAutarky(t *testing.T) {
	m := newMachine()
	rt := &detectRuntime{cpu: m.cpu}
	p, err := m.kernel.LoadEnclave(hostos.EnclaveSpec{
		Base:     base,
		Size:     4 * mmu.PageSize,
		Attrs:    sgx.AttrSelfPaging,
		Runtime:  rt,
		Segments: []hostos.Segment{{VA: base, Pages: 4, Perms: mmu.PermRW}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.cpu.TimerInterval = 2
	mon := NewADBitMonitor([]mmu.VAddr{base}, false)
	m.kernel.Adversary = mon
	rt.app = func() {
		mon.Arm(m.kernel) // clears the A bit
		for i := 0; i < 10; i++ {
			_ = m.cpu.Touch(base, mmu.AccessRead)
		}
		t.Error("victim survived A/D probing")
	}
	runErr := m.kernel.Run(p)
	var term *sgx.TerminationError
	if !errors.As(runErr, &term) || term.Reason != sgx.TerminateAttackDetected {
		t.Fatalf("err = %v", runErr)
	}
}

func TestSignatureMatcherExact(t *testing.T) {
	msk := NewSignatureMatcher()
	msk.Learn("alpha", []mmu.VAddr{0x1000, 0x2000})
	msk.Learn("beta", []mmu.VAddr{0x2000, 0x1000})
	obs := &trace.Log{}
	obs.Add(trace.Event{Addr: 0x1000})
	obs.Add(trace.Event{Addr: 0x2000})
	got := msk.MatchExact(obs)
	if len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("MatchExact = %v", got)
	}
}

func TestSignatureMatcherPageSetDistinguishesPrefixes(t *testing.T) {
	msk := NewSignatureMatcher()
	msk.Learn("short", []mmu.VAddr{0x1000})
	msk.Learn("long", []mmu.VAddr{0x1000, 0x2000})
	obs := &trace.Log{}
	obs.Add(trace.Event{Addr: 0x2000})
	obs.Add(trace.Event{Addr: 0x1000})
	got := msk.MatchPageSet(obs)
	if len(got) != 1 || got[0] != "long" {
		t.Fatalf("MatchPageSet = %v", got)
	}
}

func TestRecoveryRate(t *testing.T) {
	if r := RecoveryRate([]string{"a", "b"}, []string{"a", "b", "c", "d"}); r != 0.5 {
		t.Fatalf("rate = %v", r)
	}
	if r := RecoveryRate(nil, []string{"a"}); r != 0 {
		t.Fatalf("rate = %v", r)
	}
	if r := RecoveryRate([]string{"a"}, nil); r != 0 {
		t.Fatalf("rate = %v", r)
	}
}

func TestWrongMapperCapturesAccesses(t *testing.T) {
	m := newMachine()
	p, rt := m.loadVictim(t, 8, false)
	targets := []mmu.VAddr{base, base + mmu.PageSize}
	decoy := base + 6*mmu.PageSize
	w := NewWrongMapper(m.kernel, targets, decoy)
	m.kernel.Adversary = w
	sequence := []int{0, 1, 0}
	rt.app = func() {
		w.Arm(m.kernel)
		for _, i := range sequence {
			if err := m.cpu.Touch(base+mmu.VAddr(i*mmu.PageSize), mmu.AccessRead); err != nil {
				t.Errorf("access: %v", err)
			}
		}
		w.Disarm(m.kernel)
	}
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	got := w.Log.Pages()
	if len(got) != len(sequence) {
		t.Fatalf("trace %v, want %d events", got, len(sequence))
	}
	for i, idx := range sequence {
		if got[i] != base.VPN()+uint64(idx) {
			t.Fatalf("trace[%d] = %#x", i, got[i])
		}
	}
	// Disarm restored correct frames: data still readable without faults.
	faults := m.osFaults()
	rt2 := &appRuntime{app: func() {
		_ = m.cpu.Touch(base, mmu.AccessRead)
	}}
	p.E.Runtime = rt2
	if err := m.kernel.Run(p); err != nil {
		t.Fatal(err)
	}
	if m.osFaults() != faults {
		t.Fatal("mappings not restored after disarm")
	}
}

func TestWrongMapperDetectedByAutarky(t *testing.T) {
	m := newMachine()
	rt := &detectRuntime{cpu: m.cpu}
	p, err := m.kernel.LoadEnclave(hostos.EnclaveSpec{
		Base:     base,
		Size:     8 * mmu.PageSize,
		Attrs:    sgx.AttrSelfPaging,
		Runtime:  rt,
		Segments: []hostos.Segment{{VA: base, Pages: 8, Perms: mmu.PermRW}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWrongMapper(m.kernel, []mmu.VAddr{base}, base+6*mmu.PageSize)
	m.kernel.Adversary = w
	rt.app = func() {
		w.Arm(m.kernel)
		_ = m.cpu.Touch(base, mmu.AccessRead)
		t.Error("access completed despite wrong mapping")
	}
	runErr := m.kernel.Run(p)
	var term *sgx.TerminationError
	if !errors.As(runErr, &term) || term.Reason != sgx.TerminateAttackDetected {
		t.Fatalf("wrong-map attack not detected: %v", runErr)
	}
}
