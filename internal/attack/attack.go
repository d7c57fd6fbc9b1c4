// Package attack implements the controlled-channel attacks of §2.2 as
// OS-level adversaries plugged into the untrusted kernel:
//
//   - PageFaultTracer: the fault-inducing attacks — break target PTEs,
//     capture the induced faults, silently repair and resume, yielding a
//     noise-free page-granular access trace. A page is broken by unmapping
//     it (Xu et al.), by stripping execute permission (Van Bulck et al.) or
//     by mapping it at the wrong frame (the Foreshadow precursor).
//   - ADBitMonitor: the "silent" Wang et al. attack — periodically clear
//     and re-read PTE accessed/dirty bits from a timer, observing accesses
//     without inducing any fault.
//   - Rollback: the host's replay of a stale sealed page from its backing
//     store.
//
// An attack's Arm installs it as the kernel's adversary and Disarm puts the
// benign one back. Every attack succeeds verbatim against the legacy SGX
// model and is detected (or blinded) by the Autarky model, which is exactly
// the paper's claim.
package attack

import (
	"autarky/internal/hostos"
	"autarky/internal/mmu"
	"autarky/internal/trace"
)

// Mode selects how the PageFaultTracer breaks a target page.
type Mode int

// Tracing modes.
const (
	// ModeUnmap clears the present bit (original attack).
	ModeUnmap Mode = iota
	// ModeNoExec strips execute permission from code pages, trapping
	// instruction fetches while leaving data access unaffected.
	ModeNoExec
	// ModeWrongMap keeps the PTE present but points it at the Decoy page's
	// frame: the OS "simply map[s] the wrong page", and the EPCM
	// linear-address check faults on access.
	ModeWrongMap
)

// PageFaultTracer traces enclave accesses to a set of target pages by
// breaking their PTEs and capturing the resulting faults. After each
// captured fault it repairs the faulted page and re-breaks the previously
// faulted one, maintaining a sliding trap so consecutive accesses keep
// faulting — the standard page-fault sequence attack.
type PageFaultTracer struct {
	Mode    Mode
	Targets []mmu.VAddr
	// Decoy is ModeWrongMap's wrong page: a page of the same enclave
	// outside the target set. Arm resolves its frame, so it must be mapped
	// then.
	Decoy mmu.VAddr

	// Log records the captured trace (page-granular, in access order).
	Log trace.Log

	last      mmu.VAddr
	lastValid bool
	decoyPFN  mmu.PFN
	// orig holds each broken page's PTE as first found: the permissions
	// ModeNoExec restores and the frame ModeWrongMap restores.
	orig map[uint64]mmu.PTE
}

// NewPageFaultTracer builds a tracer for the target pages.
func NewPageFaultTracer(mode Mode, targets []mmu.VAddr) *PageFaultTracer {
	return &PageFaultTracer{Mode: mode, Targets: targets, orig: make(map[uint64]mmu.PTE)}
}

// Arm installs the tracer as k's adversary and breaks all target PTEs.
// Call before the victim runs.
func (t *PageFaultTracer) Arm(k *hostos.Kernel) {
	k.Adversary = t
	if t.Mode == ModeWrongMap {
		if pte, ok := k.PT.Get(t.Decoy); ok {
			t.decoyPFN = pte.PFN
		}
	}
	for _, va := range t.Targets {
		t.breakPage(k, va)
	}
}

// Disarm restores every target page and uninstalls the tracer.
func (t *PageFaultTracer) Disarm(k *hostos.Kernel) {
	for _, va := range t.Targets {
		t.fixPage(k, va)
	}
	t.lastValid = false
	k.Adversary = hostos.NopAdversary{}
}

func (t *PageFaultTracer) isTarget(va mmu.VAddr) bool {
	for _, x := range t.Targets {
		if x.PageBase() == va.PageBase() {
			return true
		}
	}
	return false
}

// save remembers pte as va's original entry unless one is already held.
func (t *PageFaultTracer) save(va mmu.VAddr, pte mmu.PTE) {
	if _, saved := t.orig[va.VPN()]; !saved {
		t.orig[va.VPN()] = pte
	}
}

func (t *PageFaultTracer) breakPage(k *hostos.Kernel, va mmu.VAddr) {
	switch t.Mode {
	case ModeUnmap:
		k.UnmapPage(va)
	case ModeNoExec:
		if pte, ok := k.PT.Get(va); ok {
			t.save(va, pte)
			k.ReducePerms(va, pte.Perms&^mmu.PermExec)
		}
	case ModeWrongMap:
		pte, ok := k.PT.Get(va)
		if !ok || !pte.Present || pte.PFN == t.decoyPFN {
			return
		}
		t.save(va, pte)
		// Preserve A/D so the remap is invisible to Autarky's A/D rule
		// until the EPCM check fires.
		k.PT.MapAD(va, t.decoyPFN, pte.Perms, true, pte.Accessed, pte.Dirty)
		k.CPU.TLB.Shootdown(va)
	}
}

func (t *PageFaultTracer) fixPage(k *hostos.Kernel, va mmu.VAddr) {
	if t.Mode == ModeUnmap {
		k.RestorePage(va)
		return
	}
	orig, ok := t.orig[va.VPN()]
	if !ok {
		return
	}
	if t.Mode == ModeNoExec {
		k.ReducePerms(va, orig.Perms)
		return
	}
	if pte, ok := k.PT.Get(va); ok {
		k.PT.MapAD(va, orig.PFN, pte.Perms, true, true, true)
		k.CPU.TLB.Shootdown(va)
	}
}

// OnEnclaveFault implements hostos.Adversary: capture, repair, re-arm the
// previous page, and report the fault handled so the kernel resumes
// silently.
func (t *PageFaultTracer) OnEnclaveFault(k *hostos.Kernel, p *hostos.Proc, f *mmu.Fault) bool {
	if !t.isTarget(f.Addr) {
		return false
	}
	t.Log.Add(trace.Event{Cycle: k.Clock.Cycles(), Addr: f.Addr.PageBase(), Type: f.Type, Kind: trace.KindFault})
	t.fixPage(k, f.Addr.PageBase())
	if t.lastValid && t.last != f.Addr.PageBase() {
		t.breakPage(k, t.last)
	}
	t.last = f.Addr.PageBase()
	t.lastValid = true
	return true
}

// OnTimer implements hostos.Adversary.
func (t *PageFaultTracer) OnTimer(*hostos.Kernel, *hostos.Proc) {}

// ADBitMonitor mounts the fault-free accessed/dirty-bit attack: on every
// preemption-timer tick it scans the target PTEs, records pages whose A (or
// D) bit turned on since the last scan, and clears the bits again.
type ADBitMonitor struct {
	Targets []mmu.VAddr
	// WatchDirty also monitors dirty-bit transitions (write detection).
	WatchDirty bool

	// Log records observed accesses in scan order.
	Log trace.Log
}

// NewADBitMonitor builds a monitor for the target pages.
func NewADBitMonitor(targets []mmu.VAddr, watchDirty bool) *ADBitMonitor {
	return &ADBitMonitor{Targets: targets, WatchDirty: watchDirty}
}

// Arm installs the monitor as k's adversary and clears all target A/D bits
// so the first accesses are observable. The victim machine's
// CPU.TimerInterval must be non-zero for the monitor to receive scan
// opportunities.
func (m *ADBitMonitor) Arm(k *hostos.Kernel) {
	k.Adversary = m
	m.scan(k) // initial clear
	m.Log.Reset()
}

// Disarm uninstalls the monitor, which stops its timer scans.
func (m *ADBitMonitor) Disarm(k *hostos.Kernel) { k.Adversary = hostos.NopAdversary{} }

// ScanNow performs an immediate scan — attackers invoke it at request
// boundaries (when the victim blocks on I/O) to delimit per-request
// observations cleanly.
func (m *ADBitMonitor) ScanNow(k *hostos.Kernel) { m.scan(k) }

func (m *ADBitMonitor) scan(k *hostos.Kernel) {
	for _, va := range m.Targets {
		accessed, dirty, ok := k.ReadADBits(va)
		if !ok {
			continue
		}
		if accessed {
			m.Log.Add(trace.Event{Cycle: k.Clock.Cycles(), Addr: va.PageBase(), Type: mmu.AccessRead, Kind: trace.KindAccessedBit})
			k.ClearAccessedBit(va)
		}
		if m.WatchDirty && dirty {
			m.Log.Add(trace.Event{Cycle: k.Clock.Cycles(), Addr: va.PageBase(), Type: mmu.AccessWrite, Kind: trace.KindDirtyBit})
			k.ClearDirtyBit(va)
		}
	}
}

// OnEnclaveFault implements hostos.Adversary.
func (m *ADBitMonitor) OnEnclaveFault(*hostos.Kernel, *hostos.Proc, *mmu.Fault) bool { return false }

// OnTimer implements hostos.Adversary: one scan per tick.
func (m *ADBitMonitor) OnTimer(k *hostos.Kernel, _ *hostos.Proc) { m.scan(k) }
