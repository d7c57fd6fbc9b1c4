// Package trace records the page-access information visible to different
// observers: the untrusted OS's record of the enclave faults it handles and
// the pages it brings in (hostos.Kernel.Observed), and the adversaries' own
// captures (A/D-bit scans among them). Experiments read these records to
// quantify exactly what each paging policy leaks.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"autarky/internal/mmu"
)

// Event is one observation: a page and how it was seen.
type Event struct {
	Cycle uint64
	Addr  mmu.VAddr // page-aligned (or enclave base when masked)
	Type  mmu.AccessType
	// Kind labels how the observer learned of the access.
	Kind Kind
}

// Kind is the observation channel.
type Kind uint8

// Observation kinds.
const (
	// KindFault is a page fault delivered to the OS.
	KindFault Kind = iota
	// KindAccessedBit is an accessed-bit transition seen by scanning PTEs.
	KindAccessedBit
	// KindDirtyBit is a dirty-bit transition.
	KindDirtyBit
	// KindPageIn is an enclave page the OS paged in: an ay_fetch_pages
	// argument, a legacy demand-paging fault or a resume's reload — the §4
	// demand-paging channel, which Autarky bounds by policy rather than
	// eliminates.
	KindPageIn
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFault:
		return "fault"
	case KindAccessedBit:
		return "A-bit"
	case KindDirtyBit:
		return "D-bit"
	case KindPageIn:
		return "page-in"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Log is an append-only sequence of events.
type Log struct {
	Events []Event
}

// Add appends an event.
func (l *Log) Add(e Event) { l.Events = append(l.Events, e) }

// Len reports the number of events.
func (l *Log) Len() int { return len(l.Events) }

// Reset clears the log.
func (l *Log) Reset() { l.Events = l.Events[:0] }

// Only returns the events of kind k, in order, as a new log.
func (l *Log) Only(k Kind) *Log {
	out := &Log{}
	for _, e := range l.Events {
		if e.Kind == k {
			out.Add(e)
		}
	}
	return out
}

// Pages returns the ordered sequence of page numbers in the log.
func (l *Log) Pages() []uint64 {
	out := make([]uint64, len(l.Events))
	for i, e := range l.Events {
		out[i] = e.Addr.VPN()
	}
	return out
}

// DistinctPages returns the sorted set of distinct pages observed.
func (l *Log) DistinctPages() []uint64 {
	set := make(map[uint64]struct{})
	for _, e := range l.Events {
		set[e.Addr.VPN()] = struct{}{}
	}
	out := make([]uint64, 0, len(set))
	for vpn := range set {
		out = append(out, vpn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Signature renders the page sequence as a string, the form attack matchers
// use as a lookup key (Xu et al. match page-fault sequences against
// signatures precomputed from the public binary).
func (l *Log) Signature() string {
	var b strings.Builder
	for i, e := range l.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", e.Addr.VPN())
	}
	return b.String()
}
