package attack

import (
	"sort"

	"autarky/internal/mmu"
	"autarky/internal/trace"
)

// This file implements the secret-recovery side of the controlled channel:
// given the public victim binary, the attacker precomputes per-secret page
// signatures and matches the captured trace against them — the methodology
// of Xu et al.'s libjpeg / Hunspell / FreeType attacks.

// SignatureMatcher maps observed page-access traces back to secrets. The
// attacker populates it offline by running the (public) victim code on
// every candidate secret and recording the page trace each produces.
type SignatureMatcher struct {
	// bySignature maps a page-sequence signature to candidate secrets.
	bySignature map[string][]string
	// bySet maps the canonical distinct-page-set key to candidate secrets
	// (for unordered observations like A/D-bit scans).
	bySet map[string][]string
}

// NewSignatureMatcher returns an empty matcher.
func NewSignatureMatcher() *SignatureMatcher {
	return &SignatureMatcher{
		bySignature: make(map[string][]string),
		bySet:       make(map[string][]string),
	}
}

// Learn records the page trace candidate secret produces.
func (m *SignatureMatcher) Learn(secret string, pages []mmu.VAddr) {
	l := &trace.Log{}
	for _, va := range pages {
		l.Add(trace.Event{Addr: va.PageBase()})
	}
	sig := l.Signature()
	m.bySignature[sig] = append(m.bySignature[sig], secret)
	key := setKey(l.DistinctPages())
	m.bySet[key] = append(m.bySet[key], secret)
}

func setKey(vpns []uint64) string {
	l := &trace.Log{}
	for _, vpn := range vpns {
		l.Add(trace.Event{Addr: mmu.PageOf(vpn)})
	}
	return l.Signature()
}

// MatchPageSet returns the candidates whose distinct-page set equals the
// observed one — the matcher for unordered observations (A/D-bit scans),
// where set equality distinguishes chain prefixes from their extensions.
func (m *SignatureMatcher) MatchPageSet(observed *trace.Log) []string {
	out := append([]string(nil), m.bySet[setKey(observed.DistinctPages())]...)
	sort.Strings(out)
	return out
}

// MatchExact returns the candidate secrets whose full signature equals the
// observed trace's.
func (m *SignatureMatcher) MatchExact(observed *trace.Log) []string {
	out := append([]string(nil), m.bySignature[observed.Signature()]...)
	sort.Strings(out)
	return out
}

// RecoveryRate scores an attack run: the fraction of secrets the attacker
// pinned down uniquely.
func RecoveryRate(recovered []string, truth []string) float64 {
	if len(truth) == 0 {
		return 0
	}
	set := make(map[string]struct{}, len(recovered))
	for _, s := range recovered {
		set[s] = struct{}{}
	}
	hit := 0
	for _, s := range truth {
		if _, ok := set[s]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
