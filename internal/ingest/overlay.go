package ingest

import (
	"griffin/internal/exec"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/rank"
)

// queryOverlay is the per-query bridge between a pinned snapshot and the
// executor: it is both the exec.DeltaView reconciling the main-segment
// intersection with the delta, and the exec.CandidateScorer evaluating
// BM25 against the snapshot's *live* collection statistics. One instance
// serves exactly one query (the executor calls Reconcile before
// ScoreCandidates, and the overlay carries the query's resolved terms
// between the two), so it needs no locking of its own.
type queryOverlay struct {
	view   *View
	main   *index.Index
	scorer *rank.Scorer // bound to the snapshot's live NumDocs/AvgDocLen
	// globalDF, when non-nil, overrides per-term document frequencies
	// with collection-wide sums (a partitioned shard's overlay: local
	// structure, global statistics — the live analogue of GlobalN).
	globalDF map[string]int

	// Resolved by Reconcile, consumed by ScoreCandidates.
	terms []string
	dfs   []int
	lists []*index.PostingList
}

// statScorer builds a BM25 scorer over a snapshot's live collection
// statistics (a stats-only index: no term dictionary, never Lookup'd),
// with core.New's parameters, so the overlay scorer and the frozen-corpus
// scorer agree bit for bit.
func statScorer(st corpusStats) *rank.Scorer {
	return rank.NewScorer(&index.Index{NumDocs: st.numDocs, AvgDocLen: st.avgDocLen()}, rank.DefaultBM25())
}

// newOverlay bundles a snapshot's view into the exec.Overlay a query
// threads through the engine. scorer carries the statistics BM25 should
// see (the snapshot's own for a single engine, the global live ones for
// a cluster shard).
func newOverlay(view *View, main *index.Index, scorer *rank.Scorer, globalDF map[string]int) *exec.Overlay {
	q := &queryOverlay{view: view, main: main, scorer: scorer, globalDF: globalDF}
	return &exec.Overlay{Delta: q, Scorer: q}
}

// Empty implements exec.DeltaView.
func (q *queryOverlay) Empty() bool { return q.view.Empty() }

// Reconcile implements exec.DeltaView: resolve the query's live document
// frequencies (billing the shadow-membership probes), drop superseded
// main candidates, and merge in the delta's own conjunction.
func (q *queryOverlay) Reconcile(mainIDs []uint32, terms []string) ([]uint32, hwmodel.CPUWork) {
	var work hwmodel.CPUWork
	q.terms = terms
	q.dfs = make([]int, len(terms))
	q.lists = make([]*index.PostingList, len(terms))
	dead := false
	for i, t := range terms {
		mainN := 0
		if pl, ok := q.main.Lookup(t); ok {
			q.lists[i] = pl
			mainN = pl.N
		}
		df, probes := q.view.liveDF(t, mainN, q.main)
		work.CachedProbes += int64(probes)
		if q.globalDF != nil {
			df = q.globalDF[t]
		}
		q.dfs[i] = df
		if df <= 0 {
			// No live document contains the term: the conjunction is
			// empty, exactly as a fresh build (where the term would be
			// absent from the dictionary).
			dead = true
		}
	}
	if dead {
		return nil, work
	}
	merged, w := q.view.reconcile(mainIDs, terms)
	work.CachedProbes += w.CachedProbes
	work.MergedElements += w.MergedElements
	return merged, work
}

// ScoreCandidates implements exec.CandidateScorer with the same
// float-accumulation discipline as rank.Scorer.ScoreCandidates — terms
// in query order, float64 accumulation, one float32 cast — but sourcing
// (tf, docLen, df) from the pinned snapshot: delta documents read their
// record, untouched main documents read the main segment. The fetched
// main lists are ignored (the overlay resolved its own in Reconcile,
// including terms absent from the main dictionary).
func (q *queryOverlay) ScoreCandidates(_ []*index.PostingList, candidates []uint32) ([]kernels.ScoredDoc, hwmodel.CPUWork) {
	var work hwmodel.CPUWork
	out := make([]kernels.ScoredDoc, len(candidates))
	for i, d := range candidates {
		rec := q.view.record(d)
		var score float64
		for j := range q.terms {
			var tf, docLen uint32
			if rec != nil {
				tf = rec.tf[q.terms[j]]
				docLen = rec.length
			} else {
				if q.lists[j] != nil {
					tf, _, _ = q.lists[j].FreqForDoc(d)
				}
				docLen = q.main.DocLen(d)
			}
			if tf > 0 {
				score += q.scorer.ScoreTerm(q.dfs[j], tf, docLen)
			}
		}
		work.ScoredDocs += int64(len(q.terms))
		out[i] = kernels.ScoredDoc{DocID: d, Score: float32(score)}
	}
	return out, work
}
