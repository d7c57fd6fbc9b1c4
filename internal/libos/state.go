package libos

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
)

// This file is the one sealed-state path behind both checkpoint/restore and
// migrate/adopt. Sealing captures the writable image (data, heap, stack),
// the application progress counter and the per-page anti-replay versions at
// a quiescent point (CSSA 0, nothing executing), encodes them with a
// deterministic binary codec and seals the result into a platform envelope
// (sgx.CPU.SealEnvelope) carrying the enclave's migration epoch and
// measurement. Opening is the mirror image: authenticate, decode
// defensively, rebuild the enclave from the same image and configuration —
// a fresh identity and sealing key, so a restart stays detectable exactly
// as the paper's threat model requires — and replay the pages through the
// normal write path, re-encrypting every page under the new incarnation's
// key. Old blobs are never reused.
//
// The codec is hand-written binary: quiesce sits on the serving tail and
// checkpoints run on a fleet cadence, so encode+seal must not allocate once
// the process's scratch buffers are warm.

// stateFormatVersion stamps the codec layout; a decoder seeing any other
// value rejects the payload outright.
const stateFormatVersion = 3

// Decode guards: a sealed payload is authenticated, but "authenticated" is
// not "well-formed" (an older writer, a hostile sealing oracle). Counts are
// capped before any allocation they would size.
const (
	maxStateStringLen = 1 << 16
	maxStateLibraries = 1 << 12
	maxStateFuncs     = 1 << 12
	maxStatePages     = 1 << 20
)

// statePage is one captured writable page.
type statePage struct {
	VA   uint64
	Data []byte
}

// statePayload is the decoded content of a sealed-state envelope. Epoch and
// Measurement come from the envelope's authenticated header, the rest from
// the codec.
type statePayload struct {
	Image       AppImage
	Config      Config
	Epoch       uint64
	Measurement [32]byte
	Progress    uint64
	Versions    map[uint64]uint64
	Pages       []statePage
}

// sealState is the capture→encode→seal pipeline behind Checkpoint and
// Migrate, sealing the process's state for use under epoch. It returns a
// view into the process's reused seal scratch (valid until the next call)
// and the captured page count. The enclave stays live: retiring it is the
// caller's decision.
func (p *Process) sealState(use sgx.SealUse, epoch uint64) ([]byte, int, error) {
	if _, in := p.Kernel.CPU.InEnclave(); in {
		return nil, 0, fmt.Errorf("libos: %s while the enclave is executing", use)
	}
	if dead, reason, _ := p.Proc.E.Dead(); dead {
		if reason == sgx.TerminateMigrated && use == sgx.UseMigration {
			// Quiesce-twice: this incarnation already handed its state off.
			return nil, 0, fmt.Errorf("libos: migrate of already-migrated enclave: %w", hostos.ErrMigrated)
		}
		return nil, 0, fmt.Errorf("libos: %s of dead enclave (%s): %w", use, reason, sgx.ErrEnclaveTerminated)
	}
	// Reset before entering: an entry that finds the thread parked mid-slice
	// (CSSA > 0) does not run the capture, and must then seal no pages
	// rather than the ones an earlier capture left in the buffers.
	p.statePages, p.stateVAs = p.statePages[:0], p.stateVAs[:0]
	// Capture drives the real access path (faulting evicted pages back in),
	// so a hostile backing store can fail it — the enclave is then still
	// live and keeps serving.
	if err := p.Run(p.capture); err != nil {
		return nil, 0, fmt.Errorf("libos: %s capture: %w", use, err)
	}
	sealed, err := p.seal(use, epoch)
	if err != nil {
		return nil, 0, err
	}
	return sealed, len(p.stateVAs), nil
}

// seal encodes the captured state and seals it for use into the reused
// scratch; once the buffers are warm it allocates nothing.
func (p *Process) seal(use sgx.SealUse, epoch uint64) ([]byte, error) {
	p.statePlain = p.encodeState(p.statePlain[:0])
	sealed, err := p.Kernel.CPU.SealEnvelope(p.stateSealed[:0], use, epoch, p.Proc.E.Measurement(), p.statePlain)
	if err != nil {
		return nil, err
	}
	p.stateSealed = sealed
	return sealed, nil
}

// zeroPage pads the capture buffer one page at a time without a per-page
// temporary.
var zeroPage [mmu.PageSize]byte

// captureWritable appends every writable page to the process's reused
// capture buffers, running inside the enclave so evicted pages are faulted
// back through the ordinary (policy-visible) path.
func (p *Process) captureWritable(ctx *core.Context) {
	regions := p.writableRegions()
	n := 0
	for _, r := range regions {
		n += r.Pages
	}
	// Grow once: appended page by page, a fresh process's first capture
	// would allocate several times its final size.
	p.statePages = slices.Grow(p.statePages, n*mmu.PageSize)
	p.stateVAs = slices.Grow(p.stateVAs, n)
	for _, r := range regions {
		for i := 0; i < r.Pages; i++ {
			va := r.Page(i)
			start := len(p.statePages)
			p.statePages = append(p.statePages, zeroPage[:]...)
			ctx.Read(va, p.statePages[start:])
			p.stateVAs = append(p.stateVAs, uint64(va))
		}
	}
}

// writableRegions returns the regions sealed state must carry, in ascending
// address order. Code pages are omitted: the loader regenerates them
// deterministically and the measurement check proves they match.
func (p *Process) writableRegions() []Region {
	var out []Region
	for _, r := range []Region{p.Data, p.Heap, p.Stack} {
		if r.Pages > 0 {
			out = append(out, r)
		}
	}
	return out
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendInt(b []byte, v int) []byte { return appendU64(b, uint64(int64(v))) }

func appendStr(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return appendU64(b, 1)
	}
	return appendU64(b, 0)
}

// encodeState appends the process's captured state to dst in the
// deterministic binary layout decodeState reverses. Field order is the
// struct order of statePayload (image, config, progress, versions, pages);
// the epoch and measurement travel in the envelope header, not here. The
// version table is emitted in ascending VPN order, the order VersionVPNs
// yields, so identical state always encodes to identical bytes.
func (p *Process) encodeState(dst []byte) []byte {
	dst = appendU64(dst, stateFormatVersion)

	img := &p.Image
	dst = appendStr(dst, img.Name)
	dst = appendU64(dst, uint64(len(img.Libraries)))
	for i := range img.Libraries {
		l := &img.Libraries[i]
		dst = appendStr(dst, l.Name)
		dst = appendInt(dst, l.Pages)
		dst = appendU64(dst, uint64(len(l.Funcs)))
		for _, f := range l.Funcs {
			dst = appendStr(dst, f.Name)
			dst = appendInt(dst, f.Pages)
		}
		dst = appendU64(dst, uint64(len(l.Uses)))
		for _, u := range l.Uses {
			dst = appendStr(dst, u)
		}
	}
	dst = appendInt(dst, img.DataPages)
	dst = appendInt(dst, img.HeapPages)
	dst = appendInt(dst, img.StackPages)
	dst = appendInt(dst, img.ReservePages)

	cfg := &p.cfg
	dst = appendU64(dst, uint64(cfg.Base))
	dst = appendInt(dst, cfg.Priority)
	dst = appendBool(dst, cfg.SelfPaging)
	dst = appendBool(dst, cfg.InEnclaveResume)
	dst = appendBool(dst, cfg.ElideAEX)
	dst = appendU64(dst, uint64(cfg.Mech))
	dst = appendInt(dst, cfg.QuotaPages)
	dst = appendU64(dst, uint64(cfg.Policy))
	dst = appendU64(dst, math.Float64bits(cfg.RateLimitPerProgress))
	dst = appendU64(dst, cfg.RateLimitBurst)
	dst = appendInt(dst, cfg.DataClusterPages)
	dst = appendBool(dst, cfg.CodeClusters)

	dst = appendU64(dst, p.Runtime.Progress())

	e := p.Proc.E
	p.stateVPNs = e.VersionVPNs(p.stateVPNs[:0])
	// The version table and the pages are nearly all of the payload: grow
	// dst for them once, to the final size, rather than as they are appended.
	dst = slices.Grow(dst, 8+16*len(p.stateVPNs)+8+len(p.stateVAs)*(16+mmu.PageSize))
	dst = appendU64(dst, uint64(len(p.stateVPNs)))
	for _, vpn := range p.stateVPNs {
		dst = appendU64(dst, vpn)
		dst = appendU64(dst, e.Version(mmu.VAddr(vpn*mmu.PageSize)))
	}

	dst = appendU64(dst, uint64(len(p.stateVAs)))
	for i, va := range p.stateVAs {
		dst = appendU64(dst, va)
		pg := p.statePages[i*mmu.PageSize : (i+1)*mmu.PageSize]
		dst = appendU64(dst, uint64(len(pg)))
		dst = append(dst, pg...)
	}
	return dst
}

// stateReader is a bounds-checked cursor over a sealed-state payload. The
// first structural defect latches err; every later read returns zero
// values, so decode logic reads straight through and checks once.
type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("libos: state payload: "+format+": %w",
			append(args, sgx.ErrBadCheckpoint)...)
	}
}

func (r *stateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// count reads a collection length and refuses anything past max or past
// what the remaining bytes could possibly hold (minSize bytes per element),
// so a hostile length can never size an allocation.
func (r *stateReader) count(max int, minSize int) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) || v > uint64(len(r.b)-r.off)/uint64(minSize) {
		r.fail("implausible element count %d at byte %d", v, r.off-8)
		return 0
	}
	return int(v)
}

func (r *stateReader) num() int {
	v := int64(r.u64())
	if r.err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
		r.fail("integer %d out of range at byte %d", v, r.off-8)
		return 0
	}
	return int(v)
}

func (r *stateReader) boolean() bool { return r.u64() != 0 }

func (r *stateReader) str() string {
	n := r.count(maxStateStringLen, 1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *stateReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// decodeState parses an authenticated payload defensively: every
// structural defect — truncation, implausible counts, trailing garbage —
// yields an ErrBadCheckpoint-wrapped field error, never a panic or a
// partially-populated payload.
func decodeState(plain []byte) (*statePayload, error) {
	r := &stateReader{b: plain}
	if v := r.u64(); r.err == nil && v != stateFormatVersion {
		return nil, fmt.Errorf("libos: state payload: unknown format version %d: %w", v, sgx.ErrBadCheckpoint)
	}

	var payload statePayload
	img := &payload.Image
	img.Name = r.str()
	img.Libraries = make([]Library, r.count(maxStateLibraries, 8))
	for i := range img.Libraries {
		l := &img.Libraries[i]
		l.Name = r.str()
		l.Pages = r.num()
		if n := r.count(maxStateFuncs, 8); n > 0 {
			l.Funcs = make([]Function, n)
			for j := range l.Funcs {
				l.Funcs[j].Name = r.str()
				l.Funcs[j].Pages = r.num()
			}
		}
		if n := r.count(maxStateFuncs, 8); n > 0 {
			l.Uses = make([]string, n)
			for j := range l.Uses {
				l.Uses[j] = r.str()
			}
		}
	}
	img.DataPages = r.num()
	img.HeapPages = r.num()
	img.StackPages = r.num()
	img.ReservePages = r.num()

	cfg := &payload.Config
	cfg.Base = mmu.VAddr(r.u64())
	cfg.Priority = r.num()
	cfg.SelfPaging = r.boolean()
	cfg.InEnclaveResume = r.boolean()
	cfg.ElideAEX = r.boolean()
	cfg.Mech = core.Mech(r.num())
	cfg.QuotaPages = r.num()
	cfg.Policy = PolicyKind(r.num())
	cfg.RateLimitPerProgress = math.Float64frombits(r.u64())
	cfg.RateLimitBurst = r.u64()
	cfg.DataClusterPages = r.num()
	cfg.CodeClusters = r.boolean()

	payload.Progress = r.u64()

	if n := r.count(maxStatePages, 16); r.err == nil {
		payload.Versions = make(map[uint64]uint64, n)
		for i := 0; i < n; i++ {
			vpn := r.u64()
			payload.Versions[vpn] = r.u64()
		}
	}

	if n := r.count(maxStatePages, 16); r.err == nil && n > 0 {
		payload.Pages = make([]statePage, n)
		for i := range payload.Pages {
			payload.Pages[i].VA = r.u64()
			sz := r.num()
			if r.err == nil && (sz < 0 || sz > mmu.PageSize) {
				r.fail("page %#x carries %d bytes", payload.Pages[i].VA, sz)
			}
			payload.Pages[i].Data = r.bytes(sz)
		}
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("libos: state payload: %d trailing bytes: %w", len(r.b)-r.off, sgx.ErrBadCheckpoint)
	}
	return &payload, nil
}

// validatePayload sanity-checks a decoded payload before any of it is used
// to size allocations or drive the replay path. Only payloads sealed under
// the platform key reach this point, but "sealed" does not imply "shaped
// like enclave state" — a hostile sealing oracle, or a bug in an older
// writer, must surface ErrBadCheckpoint, never a panic.
func validatePayload(p *statePayload) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("libos: state payload: "+format+": %w",
			append(args, sgx.ErrBadCheckpoint)...)
	}
	// The configuration is one Load would refuse with a bare *ConfigError,
	// but only after rebuild tore down the incarnation at the base.
	if err := p.Config.Validate(); err != nil {
		return bad("%w", err)
	}
	img := &p.Image
	total := img.DataPages + img.HeapPages + img.StackPages + img.ReservePages
	if img.DataPages < 0 || img.HeapPages < 0 || img.StackPages < 0 || img.ReservePages < 0 {
		return bad("negative region size")
	}
	for i := range img.Libraries {
		l := &img.Libraries[i]
		if l.Pages < 0 {
			return bad("library %q has negative page count", l.Name)
		}
		for _, f := range l.Funcs {
			if f.Pages < 0 {
				return bad("function %q has negative page count", f.Name)
			}
		}
		total += l.TotalPages()
	}
	const maxImagePages = 1 << 20 // 4 GiB of ELRANGE; far beyond any test image
	if total <= 0 || total > maxImagePages {
		return bad("implausible image size %d pages", total)
	}
	// Every version must belong to a page of the ELRANGE the image spans
	// when loaded at the payload's base, and be one an eviction could have
	// produced: the enclave keeps a counter only for its own pages, and a
	// zero version is no version.
	base := p.Config.loadBase()
	first, pages := base.VPN(), uint64(img.LoadedPages()+img.ReservePages)
	if end := uint64(base) + pages*mmu.PageSize; end <= uint64(base) {
		return bad("image of %d pages at %s wraps the address space", pages, base)
	}
	outside, zero := 0, 0
	for vpn, v := range p.Versions {
		if vpn-first >= pages {
			outside++
		}
		if v == 0 {
			zero++
		}
	}
	if outside > 0 {
		return bad("version table names %d page(s) outside the image's ELRANGE [%s, %s)",
			outside, base, mmu.PageOf(first+pages))
	}
	if zero > 0 {
		return bad("version table holds %d zero version(s)", zero)
	}
	for i := range p.Pages {
		pg := &p.Pages[i]
		if pg.VA%mmu.PageSize != 0 {
			return bad("unaligned page address %#x", pg.VA)
		}
		if len(pg.Data) > mmu.PageSize {
			return bad("page %#x carries %d bytes", pg.VA, len(pg.Data))
		}
	}
	return nil
}

// openState is the open→decode→validate→rebuild pipeline behind Restore and
// Adopt. It authenticates an envelope sealed for use, checks its epoch
// against counters (when non-nil) before decoding anything, rebuilds the
// enclave at the envelope's epoch, and only then commits the epoch — so a
// failed rebuild never burns an envelope.
func openState(k *hostos.Kernel, sealed []byte, use sgx.SealUse, counters *sgx.CounterService) (*Process, error) {
	epoch, meas, plain, err := k.CPU.OpenEnvelope(sealed, use)
	if err != nil {
		return nil, err
	}
	if counters != nil {
		if err := counters.Verify(meas, epoch); err != nil {
			return nil, err
		}
	}
	payload, err := decodeState(plain)
	if err != nil {
		return nil, err
	}
	payload.Epoch, payload.Measurement = epoch, meas
	if err := validatePayload(payload); err != nil {
		return nil, err
	}
	p, err := rebuild(k, payload)
	if err != nil {
		return nil, err
	}
	if counters != nil {
		counters.Commit(meas, epoch)
	}
	return p, nil
}

// rebuild is the tail of openState: tear down the dead incarnation
// occupying the address range, rebuild the enclave from the payload's image
// and configuration resuming at its epoch, verify the measurement matches
// the source, and replay the captured pages through the normal write path —
// re-encrypting every page under the new incarnation's identity. A failure
// after the load unwinds the new enclave, so a refused restore or adopt
// leaves nothing registered.
func rebuild(k *hostos.Kernel, payload *statePayload) (*Process, error) {
	if old := k.ProcAt(payload.Config.loadBase()); old != nil {
		if err := k.DestroyEnclave(old); err != nil {
			return nil, err
		}
	}
	cfg := payload.Config
	cfg.seedVersions = payload.Versions
	cfg.seedEpoch = payload.Epoch
	p, err := Load(k, payload.Image, cfg)
	if err != nil {
		return nil, err
	}
	if p.Proc.E.Measurement() != payload.Measurement {
		return nil, p.unwind(fmt.Errorf("libos: rebuilt enclave measurement differs from the sealed state: %w", sgx.ErrBadCheckpoint))
	}
	// Replay only pages the rebuilt image actually has as writable state; a
	// sealed payload naming any other address is inconsistent with the image
	// it carries and must fail cleanly, not fault the replay.
	writable := make(map[mmu.VAddr]bool)
	for _, r := range p.writableRegions() {
		for _, va := range r.PageVAs() {
			writable[va] = true
		}
	}
	for i := range payload.Pages {
		if !writable[mmu.VAddr(payload.Pages[i].VA)] {
			return nil, p.unwind(fmt.Errorf("libos: sealed page %#x outside the image's writable regions: %w",
				payload.Pages[i].VA, sgx.ErrBadCheckpoint))
		}
	}
	err = p.Run(func(ctx *core.Context) {
		for i := range payload.Pages {
			ctx.Write(mmu.VAddr(payload.Pages[i].VA), payload.Pages[i].Data)
		}
	})
	if err != nil {
		return nil, p.unwind(fmt.Errorf("libos: sealed state replay: %w", err))
	}
	p.Runtime.SeedProgress(payload.Progress)
	return p, nil
}
