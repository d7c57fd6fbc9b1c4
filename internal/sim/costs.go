package sim

// Costs is the calibrated cycle cost model for the simulated machine.
//
// The constants are chosen to reproduce the component breakdown of the
// paper's Figure 5 (paging latency ≈ 25k–31k cycles per page, of which
// 40–50% is enclave preemption + fault-handler invocation) and the SGX
// transition costs the paper cites: an enclave exception handler costs more
// than 6× a signal handler, EENTER/EEXIT and AEX/ERESUME pairs cost several
// thousand cycles each, and EWB/ELDU include AES-128 work over a 4 KiB page.
//
// Absolute values are a model; every experiment reports ratios between runs
// under the identical model, mirroring the paper's own relative methodology.
type Costs struct {
	// Core memory system.
	TLBHit        uint64 // hit in the TLB
	PTWalkLevel   uint64 // one level of the 4-level page-table walk
	ADWriteback   uint64 // setting accessed/dirty bits during a walk
	ADCheck       uint64 // Autarky's A/D-must-be-set check on enclave PTE fetch (paper: pessimistic 10 cycles)
	MemAccess     uint64 // the data access itself (cache-line granularity abstracted away)
	TLBShootdown  uint64 // remote TLB invalidation (IPI round)
	TLBFlushLocal uint64 // full local TLB flush (on enclave entry/exit)

	// Enclave transitions.
	EENTER  uint64
	EEXIT   uint64
	AEX     uint64 // asynchronous exit: save SSA, scrub registers, exit
	ERESUME uint64

	// OS work.
	OSFaultEntry  uint64 // trap into the kernel fault handler
	OSFaultWork   uint64 // kernel bookkeeping per fault (vma lookup etc.)
	SyscallRound  uint64 // classic ocall-style syscall round trip (unused with exitless calls)
	ExitlessCall  uint64 // exitless host call (shared-memory request; paper §6)
	UpcallDeliver uint64 // delivering the fault into the enclave handler stack

	// Trusted runtime (internal/core): one invocation of the enclave's own
	// fault handler (SSA decode, bookkeeping), the "Autarky PF handler
	// overhead" component of Fig. 5.
	TrustedHandler uint64

	// SGX paging instructions (per 4 KiB page).
	EWB    uint64 // evict: encrypt+MAC+version, write to untrusted memory
	ELDU   uint64 // load: fetch, decrypt, verify, install in EPC
	EBLOCK uint64
	ETRACK uint64

	// SGXv2 dynamic memory instructions (per page).
	EAUG        uint64
	EACCEPT     uint64
	EACCEPTCOPY uint64
	EMODPR      uint64
	EMODT       uint64
	EREMOVE     uint64

	// Software crypto inside the enclave (SGXv2 self-paging path encrypts in
	// software with AES-NI; per 4 KiB page).
	SWEncryptPage uint64
	SWDecryptPage uint64

	// Scheduler work (internal/sched): one dispatch decision — run-queue
	// scan, quantum programming, and switch bookkeeping in the kernel.
	SchedDispatch uint64

	// Oblivious-RAM primitive costs.
	ObliviousWordScan uint64 // one CMOV-style oblivious compare+select per word
	ORAMBlockMove     uint64 // move+re-encrypt one 4 KiB block along a path
	ORAMCacheLookup   uint64 // hit-path lookup in the enclave-managed cache

	// Paging-backend storage hierarchy (pagestore wrappers).
	BlobCacheLookup uint64 // index probe in the sealed-blob cache
	BlobCopy        uint64 // copy one sealed 4 KiB blob between backend levels

	// Request-serving frontend (internal/service): frame marshalling across
	// the untrusted channel, per-request dispatch bookkeeping, and one idle
	// poll of the arrival queues.
	ServFrame    uint64 // encode or decode one 32-byte frame + checksum
	ServDispatch uint64 // dequeue, correlation and queue bookkeeping per frame
	ServPoll     uint64 // one empty scan of the connection queues

	// Fleet layer (internal/fleet): one placement/rebalance policy scan
	// over a machine's occupancy metrics. Only fleet paths charge it, so
	// single-machine experiments are unaffected.
	FleetScan uint64

	// Supervision (internal/fleet): one heartbeat publication by a healthy
	// node, and one watchdog sweep of the fleet's heartbeat deadlines by the
	// supervisor. Only supervised fleets charge these.
	FleetHeartbeat uint64
	FleetWatchdog  uint64
}

// DefaultCosts returns the calibrated model used by all experiments.
func DefaultCosts() Costs {
	return Costs{
		TLBHit:        1,
		PTWalkLevel:   25,
		ADWriteback:   15,
		ADCheck:       10,
		MemAccess:     4,
		TLBShootdown:  1200,
		TLBFlushLocal: 300,

		EENTER:  3200,
		EEXIT:   3300,
		AEX:     3400,
		ERESUME: 3600,

		OSFaultEntry: 600,
		OSFaultWork:  900,
		SyscallRound: 3000,
		ExitlessCall: 700,
		// UpcallDeliver is the elided-AEX fault delivery (§5.1.3): the SSA
		// state save still happens in microcode; only the exit, the OS
		// round trip and the re-entry are skipped.
		UpcallDeliver: 2600,

		TrustedHandler: 1200,

		EWB:    7200,
		ELDU:   6800,
		EBLOCK: 250,
		ETRACK: 300,

		EAUG:        900,
		EACCEPT:     1100,
		EACCEPTCOPY: 1500,
		EMODPR:      900,
		EMODT:       900,
		EREMOVE:     700,

		SWEncryptPage: 2600,
		SWDecryptPage: 2600,

		// A scheduler dispatch is ordinary kernel bookkeeping, cheaper than
		// a syscall round but more than plain fault accounting.
		SchedDispatch: 450,

		// One oblivious posmap/stash entry visit in uncached mode: CMOV
		// select plus amortized decryption of the sealed entry stream.
		ObliviousWordScan: 48,
		// Moving one 4 KiB block along a PathORAM path re-encrypts it.
		ORAMBlockMove:   3000,
		ORAMCacheLookup: 40,

		// The blob cache is an ordinary hash-map probe in untrusted RAM…
		BlobCacheLookup: 60,
		// …but moving a sealed 4 KiB blob between levels streams the page.
		BlobCopy: 1100,

		// Frames are 32 bytes + a mixing checksum: a few cache lines of
		// work per direction. Dispatch touches the queue rings and the
		// correlation state; an idle poll scans queue heads only.
		ServFrame:    120,
		ServDispatch: 180,
		ServPoll:     400,

		// A rebalance scan reads each node's occupancy counters and
		// compares them against the watermarks: cache-resident arithmetic,
		// not I/O.
		FleetScan: 600,

		// A heartbeat is a shared-memory counter write; the watchdog sweep
		// compares each node's last beat against its deadline.
		FleetHeartbeat: 80,
		FleetWatchdog:  350,
	}
}
