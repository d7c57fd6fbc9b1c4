package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// This file models the platform's sealed-state service: an enclave's
// captured state (pages, version counters, progress) is sealed under a key
// derived from the platform root secret — the same EGETKEY-style derivation
// that keys per-enclave page sealing, under a distinct label — so the
// envelope is opaque and tamper-evident to the OS that stores or carries
// it. A checkpoint and a migration are one act with two uses: both seal the
// same capture into the same envelope, and only the key label and what the
// receiver does with the epoch differ. (Cf. "Migrating SGX Enclaves with
// Persistent State": sealed, versioned enclave state whose freshness
// counter travels under the seal.)
//
// Envelope framing (everything after the nonce is authenticated):
//
//	nonce(12) || epoch(8) || measurement(32) || ciphertext
//
// The epoch and source measurement ride in the clear — the counter service
// and the destination must read them before decrypting — but they are
// bound, with the use's label, into the AEAD's additional data, so
// tampering with either voids the seal.
//
// A rebuilt enclave gets a fresh identity and hence a fresh page sealing
// key — a restart is *detectable*, exactly as the paper's threat model
// requires (§3) — so sealed pages are re-encrypted under the new
// incarnation's key by replaying them through the normal write path, never
// by reusing old blobs.

// ErrBadCheckpoint is returned when a sealed-state envelope fails its
// authentication or framing checks.
var ErrBadCheckpoint = errors.New("sgx: checkpoint blob failed integrity check")

// SealUse names what a sealed-state envelope is for. Each use has its own
// key label, so an envelope sealed for one never opens as the other.
type SealUse uint8

const (
	// UseCheckpoint seals a recovery point: the source stays live and the
	// envelope may be restored many times.
	UseCheckpoint SealUse = iota
	// UseMigration seals a one-shot handoff whose epoch the counter
	// service checks and burns.
	UseMigration
	numSealUses
)

// sealLabels separate each use's key from the other's and from every page
// sealing key derived from the same root secret.
var sealLabels = [numSealUses]string{
	UseCheckpoint: "autarky-checkpoint-v1",
	UseMigration:  "autarky-migration-v1",
}

// String names the use.
func (u SealUse) String() string {
	switch u {
	case UseCheckpoint:
		return "checkpoint"
	case UseMigration:
		return "migration"
	default:
		return fmt.Sprintf("SealUse(%d)", int(u))
	}
}

// envelopeHeaderLen is the envelope prefix: nonce, epoch, source measurement.
const envelopeHeaderLen = 12 + 8 + 32

// sealingAEAD derives (once per use) and caches the platform's sealing key
// for use: sealing sits on the quiesce and checkpoint paths and must not
// allocate per call.
func (c *CPU) sealingAEAD(use SealUse) (cipher.AEAD, error) {
	if use >= numSealUses {
		return nil, fmt.Errorf("sgx: unknown seal use %d", use)
	}
	if c.sealAEAD[use] != nil {
		return c.sealAEAD[use], nil
	}
	h := sha256.New()
	h.Write(c.rootSecret)
	h.Write([]byte(sealLabels[use]))
	block, err := aes.NewCipher(h.Sum(nil)[:16])
	if err != nil {
		return nil, fmt.Errorf("sgx: deriving %s key: %w", use, err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	c.sealAEAD[use] = aead
	return aead, nil
}

// envelopeAAD assembles the additional data binding an envelope's use and
// clear header to its ciphertext, into the CPU's reused scratch.
func (c *CPU) envelopeAAD(use SealUse, epoch uint64, meas [32]byte) []byte {
	aad := c.sealAAD[:0]
	aad = append(aad, sealLabels[use]...)
	aad = binary.LittleEndian.AppendUint64(aad, epoch)
	aad = append(aad, meas[:]...)
	c.sealAAD = aad
	return aad
}

// SealEnvelope seals an enclave's captured state for use into an envelope
// appended to dst, charging the software encryption cost per covered page.
// epoch is the envelope's freshness counter and meas the source
// measurement; both are carried in the clear but authenticated. The
// append-style contract and the cached AEAD keep the seal allocation-free
// when dst has capacity; otherwise dst grows once, to the envelope's size.
func (c *CPU) SealEnvelope(dst []byte, use SealUse, epoch uint64, meas [32]byte, payload []byte) ([]byte, error) {
	aead, err := c.sealingAEAD(use)
	if err != nil {
		return nil, err
	}
	c.sealSeq++
	dst = slices.Grow(dst, envelopeHeaderLen+len(payload)+aead.Overhead())
	// Each key is shared by every machine derived from the same root
	// secret, so the nonce mixes this platform's boot salt with its local
	// sequence: two machines sealing concurrently never collide.
	start := len(dst)
	dst = append(dst, make([]byte, 12)...)
	nonce := dst[start : start+12]
	binary.LittleEndian.PutUint64(nonce[:8], c.sealSeq)
	binary.LittleEndian.PutUint32(nonce[8:12], uint32(c.instanceSalt))
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = append(dst, meas[:]...)
	c.Clock.ChargeAs(sim.CatCrypto, pagesOf(len(payload))*c.Costs.SWEncryptPage)
	return aead.Seal(dst, nonce, payload, c.envelopeAAD(use, epoch, meas)), nil
}

// OpenEnvelope authenticates and decrypts an envelope sealed for use,
// returning its epoch, the source measurement and the plaintext state. Any
// structural defect — truncation, an envelope sealed for the other use,
// tampering with the clear header or the ciphertext — fails with
// ErrBadCheckpoint; freshness is the caller's job, not this routine's.
func (c *CPU) OpenEnvelope(sealed []byte, use SealUse) (epoch uint64, meas [32]byte, plain []byte, err error) {
	aead, err := c.sealingAEAD(use)
	if err != nil {
		return 0, meas, nil, err
	}
	if len(sealed) < envelopeHeaderLen+aead.Overhead() {
		return 0, meas, nil, fmt.Errorf("%w: %d bytes is shorter than any %s envelope",
			ErrBadCheckpoint, len(sealed), use)
	}
	nonce := sealed[:12]
	epoch = binary.LittleEndian.Uint64(sealed[12:20])
	copy(meas[:], sealed[20:envelopeHeaderLen])
	c.Clock.ChargeAs(sim.CatCrypto, pagesOf(len(sealed)-envelopeHeaderLen)*c.Costs.SWDecryptPage)
	plain, err = aead.Open(nil, nonce, sealed[envelopeHeaderLen:], c.envelopeAAD(use, epoch, meas))
	if err != nil {
		return 0, meas, nil, fmt.Errorf("%w: %s envelope failed authentication", ErrBadCheckpoint, use)
	}
	return epoch, meas, plain, nil
}

// pagesOf rounds a byte count up to whole pages for cost charging.
func pagesOf(n int) uint64 {
	return (uint64(n) + mmu.PageSize - 1) / mmu.PageSize
}
