package service

import (
	"encoding/binary"
	"errors"
)

// FrameKind is the frame type byte.
type FrameKind uint8

// The frame kinds. Wire format: never renumber.
const (
	// FrameRequest carries op + arg from client to server.
	FrameRequest FrameKind = iota + 1
	// FrameReply carries a result (or a wire error code) back.
	FrameReply
	// FrameKeepAlive probes an idle connection in both directions.
	FrameKeepAlive
)

// Frame is one protocol message in its in-memory form. Kind, Op, ErrCode,
// Conn, Corr and Arg cross the wire; Gen and Arrive are channel metadata —
// the connection incarnation that admitted the frame (stale frames are
// discarded after a reset) and the open-loop arrival cycle latency is
// measured from.
type Frame struct {
	Kind    FrameKind
	Op      uint8  // operation index in the server's frozen table
	ErrCode uint8  // wire error code on replies (wireOK on success)
	Conn    uint32 // connection id
	Gen     uint32 // connection incarnation at admission (not on wire)
	Corr    uint64 // correlation id, unique per connection incarnation
	Arg     uint64 // request argument / reply value
	Arrive  uint64 // arrival cycle (not on wire)
}

// FrameBytes is the wire size of every frame: a fixed 32-byte layout —
// version, kind, op, error code, connection id, correlation id, argument —
// closed by a 64-bit mixing checksum over the first 24 bytes. A single
// flipped bit anywhere fails the checksum, which is how in-transit
// corruption becomes a detectable (and connection-fatal) event instead of a
// silently wrong reply.
const FrameBytes = 32

// frameVersion is the protocol version byte leading every frame.
const frameVersion = 0xA7

var errBadFrame = errors.New("service: frame checksum mismatch")

// EncodeTo marshals the frame into buf (len >= FrameBytes).
func (f *Frame) EncodeTo(buf []byte) {
	buf[0] = frameVersion
	buf[1] = byte(f.Kind)
	buf[2] = f.Op
	buf[3] = f.ErrCode
	binary.LittleEndian.PutUint32(buf[4:8], f.Conn)
	binary.LittleEndian.PutUint64(buf[8:16], f.Corr)
	binary.LittleEndian.PutUint64(buf[16:24], f.Arg)
	binary.LittleEndian.PutUint64(buf[24:32], frameSum(buf[:24]))
}

// DecodeFrame unmarshals and verifies one frame. Any mismatch — version,
// checksum — is reported as errBadFrame; the caller resets the connection.
func DecodeFrame(buf []byte) (Frame, error) {
	if len(buf) < FrameBytes || buf[0] != frameVersion {
		return Frame{}, errBadFrame
	}
	if binary.LittleEndian.Uint64(buf[24:32]) != frameSum(buf[:24]) {
		return Frame{}, errBadFrame
	}
	return Frame{
		Kind:    FrameKind(buf[1]),
		Op:      buf[2],
		ErrCode: buf[3],
		Conn:    binary.LittleEndian.Uint32(buf[4:8]),
		Corr:    binary.LittleEndian.Uint64(buf[8:16]),
		Arg:     binary.LittleEndian.Uint64(buf[16:24]),
	}, nil
}

// frameSum is a SplitMix64-style mixing checksum: not cryptographic (the
// channel adversary is modelled by the fault plan, not defeated by the
// frame format), but any single corruption flips it.
func frameSum(b []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(b); i += 8 {
		h ^= binary.LittleEndian.Uint64(b[i : i+8])
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
		h *= 0x94d049bb133111eb
		h ^= h >> 32
	}
	return h
}
