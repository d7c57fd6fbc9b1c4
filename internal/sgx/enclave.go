package sgx

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// Runtime is the trusted software loaded at the enclave's attested entry
// point. EENTER vectors to OnEntry; the runtime dispatches on TCS.CSSA():
// zero means a fresh call (run the application), non-zero means an
// exception frame is on the SSA stack (run the fault handler).
//
// Autarky's self-paging runtime (internal/core) implements this interface.
type Runtime interface {
	OnEntry(tcs *TCS)
}

// pageSlot is the hardware's paging record of one enclave page. version is
// the page's eviction version counter, modelling the trusted VA-page chain
// that gives EWB/ELDU replay protection; 0 means the page carries none.
// While swapped is set the page is evicted, and perms holds the EPCM
// permissions ELDU restores (modelling the sealed PCMD metadata).
type pageSlot struct {
	version uint64
	perms   mmu.Perms
	swapped bool
}

// Enclave is the trusted per-enclave state: the SECS fields the model
// needs, the measurement, the sealing identity and the paging version
// counters (modelling SGX's version-array pages).
type Enclave struct {
	ID   uint64
	Base mmu.VAddr // ELRANGE start (page aligned)
	Size uint64    // ELRANGE length in bytes (multiple of page size)

	Attrs Attributes

	// Runtime is the trusted entry-point dispatcher, set before EINIT.
	Runtime Runtime

	initialized bool
	// migrationEpoch is the freshness counter this incarnation resumed
	// from (0 if it never migrated); see migrate.go.
	migrationEpoch uint64
	dead           bool
	deadReason     TerminationReason
	deadDetail     string
	deadCause      error

	measuring   [32]byte // running measurement state (chained hashes)
	measurement [32]byte // final after EINIT

	sealer *pagestore.Sealer

	// sealBuf and openBuf are reusable scratch for EWB's sealed output and
	// ELDU's decrypted page: the paging loop seals and restores thousands of
	// pages, and each is consumed (stored / copied into EPC) before the next
	// call, so one buffer per direction suffices and the hot path allocates
	// nothing.
	sealBuf []byte
	openBuf []byte

	// ewbBatch, elduVA and elduBlob are the batch of one that EWB and ELDU
	// hand the paging backend. Held here rather than built per call, the
	// hand-off through the backend interface allocates nothing.
	ewbBatch [1]pagestore.PageBlob
	elduVA   [1]mmu.VAddr
	elduBlob [1]pagestore.Blob

	// slots holds the hardware's paging record of every ELRANGE page,
	// indexed by the page's offset from Base (see slot). ECREATE sizes it
	// once; it never grows.
	slots []pageSlot

	// trackEpoch advances on ETRACK; shootdownEpoch records the last epoch
	// for which the OS completed a TLB shootdown round.
	trackEpoch     uint64
	shootdownEpoch uint64

	tcss map[uint64]*TCS
}

// Contains reports whether va lies in the enclave's ELRANGE.
func (e *Enclave) Contains(va mmu.VAddr) bool {
	return va >= e.Base && uint64(va-e.Base) < e.Size
}

// Initialized reports whether EINIT has run.
func (e *Enclave) Initialized() bool { return e.initialized }

// Dead reports whether the trusted runtime terminated the enclave, and why.
func (e *Enclave) Dead() (bool, TerminationReason, string) {
	return e.dead, e.deadReason, e.deadDetail
}

// terminationError builds the error a dead enclave returns on every entry
// attempt, preserving the recorded cause chain.
func (e *Enclave) terminationError() *TerminationError {
	return &TerminationError{Reason: e.deadReason, Detail: e.deadDetail, Cause: e.deadCause}
}

// Measurement returns the enclave's MRENCLAVE-like identity. It is only
// valid after EINIT.
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// TCS returns the thread control structure with the given ID.
func (e *Enclave) TCS(id uint64) *TCS { return e.tcss[id] }

// slot returns the paging record of the page holding va, or nil when va
// lies outside ELRANGE.
func (e *Enclave) slot(va mmu.VAddr) *pageSlot { return e.slotOf(va.VPN()) }

// slotOf returns the paging record of page vpn, or nil outside ELRANGE. A
// page below Base wraps the unsigned offset past the end, so one comparison
// bounds both sides.
func (e *Enclave) slotOf(vpn uint64) *pageSlot {
	i := vpn - e.Base.VPN()
	if i >= uint64(len(e.slots)) {
		return nil
	}
	return &e.slots[i]
}

// Version returns the current anti-replay version for a page, 0 for a page
// never evicted or outside ELRANGE.
func (e *Enclave) Version(va mmu.VAddr) uint64 {
	if s := e.slot(va); s != nil {
		return s.version
	}
	return 0
}

// SeedVersions pre-loads the per-page anti-replay counters (vpn -> version)
// from a trusted checkpoint, so a restored enclave continues the version
// chain of its previous incarnation instead of restarting at zero. A page
// outside ELRANGE has no counter to seed and fails the call with
// ErrBadAddress. Only permitted before any page of the new incarnation has
// been evicted — seeding after that would break the monotonicity that
// gives the counters their anti-replay power.
func (e *Enclave) SeedVersions(versions map[uint64]uint64) error {
	for i := range e.slots {
		if e.slots[i].version != 0 {
			panic("sgx: SeedVersions after eviction activity")
		}
	}
	for vpn, v := range versions {
		s := e.slotOf(vpn)
		if s == nil {
			return fmt.Errorf("%w: version seed for page number %#x outside ELRANGE", ErrBadAddress, vpn)
		}
		s.version = v
	}
	return nil
}

// MigrationEpoch returns the freshness counter this incarnation was adopted
// at (0 for an enclave that has never migrated). The next migration envelope
// sealed from this enclave carries MigrationEpoch()+1.
func (e *Enclave) MigrationEpoch() uint64 { return e.migrationEpoch }

// SeedMigrationEpoch records the freshness counter an adopted incarnation
// resumed from. Like SeedVersions it is load-time state: seeding after EINIT
// would let a running enclave rewrite its own migration history.
func (e *Enclave) SeedMigrationEpoch(epoch uint64) {
	if e.initialized {
		panic("sgx: SeedMigrationEpoch after EINIT")
	}
	e.migrationEpoch = epoch
}

// VersionVPNs appends the VPNs that currently carry an anti-replay version
// to dst, in ascending order, and returns it, letting a caller snapshot the
// version set into a reused buffer.
func (e *Enclave) VersionVPNs(dst []uint64) []uint64 {
	base := e.Base.VPN()
	for i := range e.slots {
		if e.slots[i].version != 0 {
			dst = append(dst, base+uint64(i))
		}
	}
	return dst
}

// SelfPaging reports whether the Autarky attribute is set.
func (e *Enclave) SelfPaging() bool { return e.Attrs.Has(AttrSelfPaging) }

func (e *Enclave) extendMeasurement(tag string, data []byte) {
	h := sha256.New()
	h.Write(e.measuring[:])
	h.Write([]byte(tag))
	h.Write(data)
	copy(e.measuring[:], h.Sum(nil))
}

// Terminate marks the enclave dead. Only the trusted runtime (via
// CPU.Terminate) and EINIT-failure paths use it.
func (e *Enclave) terminate(reason TerminationReason, detail string) {
	e.terminateCause(reason, detail, nil)
}

// terminateCause marks the enclave dead, recording the concrete error that
// triggered the shutdown so later entry attempts surface the full chain.
func (e *Enclave) terminateCause(reason TerminationReason, detail string, cause error) {
	if e.dead {
		return
	}
	e.dead = true
	e.deadReason = reason
	e.deadDetail = detail
	e.deadCause = cause
}

// ECREATE creates an enclave covering [base, base+size) with the given
// attributes, allocating its identity from the CPU's enclave-ID counter.
// It is the first step of the build flow ECREATE → EADD* → EINIT.
func (c *CPU) ECREATE(base mmu.VAddr, size uint64, attrs Attributes) (*Enclave, error) {
	if base.Offset() != 0 || size == 0 || size%mmu.PageSize != 0 {
		return nil, fmt.Errorf("%w: ELRANGE %s+%d not page aligned", ErrBadAddress, base, size)
	}
	if uint64(base)+size <= uint64(base) {
		return nil, fmt.Errorf("%w: ELRANGE %s+%d wraps the address space", ErrBadAddress, base, size)
	}
	c.nextEnclaveID++
	e := &Enclave{
		ID:    c.nextEnclaveID,
		Base:  base,
		Size:  size,
		Attrs: attrs,
		slots: make([]pageSlot, size/mmu.PageSize),
		tcss:  make(map[uint64]*TCS),
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(base))
	binary.LittleEndian.PutUint64(hdr[8:16], size)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(attrs))
	e.extendMeasurement("ECREATE", hdr[:])
	sealer, err := pagestore.NewSealer(c.pageSealingRoot(), e.ID)
	if err != nil {
		return nil, err
	}
	e.sealer = sealer
	c.enclaves[e.ID] = e
	return e, nil
}

// pageSealingRoot is the secret enclave page keys derive from: the root
// secret bound to this platform instance. Enclave IDs restart at 1 on every
// CPU, so without the binding two machines sharing a root secret (a fleet,
// two facade machines) would give their first enclaves one page key, and a
// host holding both stores could feed one tenant the other's pages. The
// binding names an instance the way Quote does, by (Platform, EnclaveID).
func (c *CPU) pageSealingRoot() []byte {
	root := append(make([]byte, 0, len(c.rootSecret)+8), c.rootSecret...)
	return binary.LittleEndian.AppendUint64(root, c.instanceSalt)
}

// EADD populates one initial enclave page before EINIT: it allocates an EPC
// frame, copies content, sets the EPCM entry and extends the measurement.
// The caller (the OS loader) must also map va→pfn in the page table; the
// returned PFN is for that purpose.
func (c *CPU) EADD(e *Enclave, va mmu.VAddr, content []byte, perms mmu.Perms, typ PageType) (mmu.PFN, error) {
	if e.initialized {
		return mmu.NoPFN, fmt.Errorf("%w: EADD after EINIT", ErrEPCMConflict)
	}
	if !e.Contains(va) || va.Offset() != 0 {
		return mmu.NoPFN, fmt.Errorf("%w: EADD at %s", ErrBadAddress, va)
	}
	if len(content) > mmu.PageSize {
		return mmu.NoPFN, fmt.Errorf("sgx: EADD content %d bytes exceeds page", len(content))
	}
	pfn, err := c.EPC.Alloc()
	if err != nil {
		return mmu.NoPFN, err
	}
	f := c.EPC.Entry(pfn)
	copy(f.Data, content)
	f.EPCM = EPCMEntry{
		Valid:     true,
		Type:      typ,
		EnclaveID: e.ID,
		LinAddr:   va,
		Perms:     perms,
	}
	var meta [16]byte
	binary.LittleEndian.PutUint64(meta[0:8], uint64(va))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(perms)|uint64(typ)<<32)
	e.extendMeasurement("EADD", meta[:])
	e.extendMeasurement("EEXTEND", f.Data)
	c.Clock.ChargeAs(sim.CatPaging, c.Costs.EAUG) // EADD cost ≈ EAUG in the model
	c.m.Inc(metrics.CntEADD)
	return pfn, nil
}

// AddTCS provisions a thread control structure with nssa SSA frames.
// Architecturally a TCS occupies an EPC page added with EADD; the model
// keeps the structure separate and measures its parameters.
func (c *CPU) AddTCS(e *Enclave, nssa int) (*TCS, error) {
	if e.initialized {
		return nil, fmt.Errorf("%w: AddTCS after EINIT", ErrEPCMConflict)
	}
	id := uint64(len(e.tcss) + 1)
	t := NewTCS(id, nssa)
	e.tcss[id] = t
	var meta [16]byte
	binary.LittleEndian.PutUint64(meta[0:8], id)
	binary.LittleEndian.PutUint64(meta[8:16], uint64(nssa))
	e.extendMeasurement("EADD-TCS", meta[:])
	return t, nil
}

// EINIT finalizes the measurement and makes the enclave executable.
func (c *CPU) EINIT(e *Enclave) error {
	if e.initialized {
		return fmt.Errorf("%w: double EINIT", ErrEPCMConflict)
	}
	if e.Runtime == nil {
		return fmt.Errorf("sgx: EINIT without a runtime entry point")
	}
	e.extendMeasurement("EINIT", nil)
	e.measurement = e.measuring
	e.initialized = true
	return nil
}
