package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/sim"
	"autarky/internal/trace"
	"autarky/internal/workloads"
)

// E7c — quantifying the §5.3 leakage hierarchy through *legitimate* paging.
// Autarky does not hide demand paging (§4); it makes the leak a policy
// choice. The OS observes the pages each ay_fetch_pages call brings in; the
// attacker intersects them with the public dictionary layout to get a
// candidate set for each spell-checked word. The anonymity-set size (mean
// candidates per query) measures the leak:
//
//   pin-all / ORAM:   no fetches at all       -> candidates = whole corpus
//   page clusters:    whole dictionary fetched -> candidates = one dictionary
//   rate-limit:       exact page fetched       -> candidates = one page's words
//
// "For ORAM, there is no leak; for page clusters, the faulting page is
// indistinguishable from others in the same cluster; for the bounded
// leakage policy, accesses to data pages may leak" (§5.3).

// E7cRow is one policy's measured anonymity set.
type E7cRow struct {
	Policy        string
	Queries       int
	FetchesSeen   int
	MeanCandidate float64 // mean anonymity-set size per query (all queries)
	// MeanWhenObserved restricts the mean to queries whose paging the OS
	// actually observed — the §5.3 per-leak anonymity set.
	MeanWhenObserved float64
	ObservedQueries  int
	Corpus           int // total words (the no-leak baseline)
}

// E7cResult is the experiment output.
type E7cResult struct {
	Rows    []E7cRow
	Metrics []CellMetrics
}

// RunE7Leakage measures the anonymity set per policy on a multi-dictionary
// spell server under EPC pressure.
func RunE7Leakage() E7cResult {
	const dicts = 4
	hcfg := workloads.HunspellConfig{
		Langs:          make([]string, dicts),
		WordsPerDict:   256,
		BucketsPerDict: 32,
		PagesPerDict:   32,
	}
	for i := range hcfg.Langs {
		hcfg.Langs[i] = fmt.Sprintf("lang_%d", i)
	}
	corpus := dicts * hcfg.WordsPerDict
	totalPages := dicts * hcfg.PagesPerDict
	const queries = 48

	policies := []struct {
		name string
		cfg  libos.Config
	}{
		{"pin-all", libos.Config{SelfPaging: true, Policy: libos.PolicyPinAll}},
		{"clusters(dict)", libos.Config{SelfPaging: true, Policy: libos.PolicyClusters, QuotaPages: 12 + totalPages/3}},
		{"rate-limit", libos.Config{SelfPaging: true, Policy: libos.PolicyRateLimit, RateLimitBurst: 1 << 40, QuotaPages: 12 + totalPages/3}},
	}
	rows, cm := runCells("E7c", len(policies), func(i int, rec *cellRecorder) E7cRow {
		return runE7cPolicy(rec, policies[i].name, RunConfig{Config: policies[i].cfg}, hcfg, corpus, queries)
	})
	return E7cResult{Rows: rows, Metrics: cm}
}

func runE7cPolicy(rec *cellRecorder, name string, rc RunConfig, hcfg workloads.HunspellConfig, corpus, queries int) E7cRow {
	row := E7cRow{Policy: name, Queries: queries, Corpus: corpus}
	var totalCandidates, observedCandidates float64
	r := runE7Victim(e7HunspellEnv{cfg: hcfg}.image(), rc, func(p *libos.Process, seen *trace.Log) func(*core.Context) {
		return func(ctx *core.Context) {
			h, err := workloads.BuildHunspell(p, ctx, hcfg)
			if err != nil {
				panic(err)
			}
			// Manual per-dictionary clusters for the cluster policy.
			if rc.Policy == libos.PolicyClusters {
				for _, lang := range hcfg.Langs {
					id := p.Reg.NewCluster(0)
					for _, va := range h.Dicts[lang].Pages() {
						if err := p.Reg.AddPage(id, va.VPN()); err != nil {
							panic(err)
						}
					}
				}
			}
			// The attacker's offline index: page -> words whose lookup touches it.
			wordsByPage := make(map[uint64]map[string]struct{})
			for _, lang := range hcfg.Langs {
				d := h.Dicts[lang]
				for _, w := range d.Words {
					for _, va := range d.AccessTrace(w) {
						set := wordsByPage[va.VPN()]
						if set == nil {
							set = make(map[string]struct{})
							wordsByPage[va.VPN()] = set
						}
						set[w] = struct{}{}
					}
				}
			}
			// Only the measured queries' page-ins count: each query reads
			// its own slice of the OS's record.
			rng := sim.NewRand(0xE7C)
			for q := 0; q < queries; q++ {
				lang := hcfg.Langs[rng.Intn(len(hcfg.Langs))]
				word := workloads.Word(lang, rng.Intn(hcfg.WordsPerDict))
				before := seen.Len()
				if _, err := h.Check(ctx, lang, word); err != nil {
					panic(err)
				}
				seg := (&trace.Log{Events: seen.Events[before:]}).Only(trace.KindPageIn)
				row.FetchesSeen += seg.Len()
				// The attacker's candidate set: words consistent with the
				// observed fetches. No observation -> the whole corpus.
				candidates := corpus
				if seg.Len() > 0 {
					union := make(map[string]struct{})
					for _, vpn := range seg.DistinctPages() {
						for w := range wordsByPage[vpn] {
							union[w] = struct{}{}
						}
					}
					if len(union) > 0 {
						candidates = len(union)
					}
					observedCandidates += float64(candidates)
					row.ObservedQueries++
				}
				totalCandidates += float64(candidates)
				ctx.Progress(1)
			}
		}
	})
	rec.recordClock("", r.clock)
	if r.terminated {
		panic(fmt.Sprintf("E7c %s: enclave terminated (%s)", name, r.reason))
	}
	row.MeanCandidate = totalCandidates / float64(queries)
	if row.ObservedQueries > 0 {
		row.MeanWhenObserved = observedCandidates / float64(row.ObservedQueries)
	} else {
		row.MeanWhenObserved = float64(corpus)
	}
	return row
}

// Table renders the result.
func (r E7cResult) Table() *Table {
	t := &Table{
		Title:  "E7c: leakage of legitimate paging by policy (anonymity set per query)",
		Note:   "§5.3 hierarchy: pin-all/ORAM leak nothing; clusters leak the dictionary;\nrate-limited demand paging leaks down to the page",
		Header: []string{"policy", "queries", "observed", "anonymity (all)", "anonymity (when observed)", "corpus"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy,
			fmt.Sprintf("%d", row.Queries),
			fmt.Sprintf("%d", row.ObservedQueries),
			F(row.MeanCandidate),
			F(row.MeanWhenObserved),
			fmt.Sprintf("%d", row.Corpus))
	}
	t.Metrics = r.Metrics
	return t
}
