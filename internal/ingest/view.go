package ingest

import (
	"sync"

	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/pvec"
)

// decrEntry memoizes one term's main-segment document-frequency
// decrement: how many of the view's shadowed documents actually appear
// in the term's main posting list, plus the binary-search probes that
// cost. The probe count is memoized along with the value so every query
// is billed identically regardless of which one computed it first.
type decrEntry struct {
	dec    int
	probes int
}

// View is an immutable snapshot of the delta index at one generation,
// pinned by queries for their whole execution. All exported state is
// read-only; the decr memo is the only mutable field and is guarded by
// its own mutex (it caches pure functions of immutable state, so
// concurrent queries only ever race to write identical values — the
// lock makes that race clean under the race detector).
type View struct {
	gen uint64
	// docs is the record per mutated docID (live versions + tombstones).
	docs map[uint32]*docRecord
	// postings holds, per term, the ascending docIDs of the *live* delta
	// documents containing it.
	postings map[string][]uint32

	mu   sync.Mutex
	decr map[string]decrEntry
}

// Gen returns the delta generation this view freezes.
func (v *View) Gen() uint64 { return v.gen }

// Empty reports whether the view holds no mutations at all. A
// tombstone-only view is *not* empty: deletions must still filter the
// main intersection.
func (v *View) Empty() bool { return v == nil || len(v.docs) == 0 }

// Docs returns the number of delta records (live + tombstoned) — the
// merge-threshold signal.
func (v *View) Docs() int {
	if v == nil {
		return 0
	}
	return len(v.docs)
}

// record returns docID's delta record, nil when the document is
// untouched by this view.
func (v *View) record(docID uint32) *docRecord { return v.docs[docID] }

// docLens returns the live document-length table over main's: main's cut
// or zero-extended to the live collection size numDocs, with every
// mutated document's entry replaced (0 for a tombstone). It shares with
// main every page no mutated document falls in.
func (v *View) docLens(main pvec.Vec[uint32], numDocs int) pvec.Vec[uint32] {
	lens := main.Edit()
	lens.Resize(numDocs)
	for id, rec := range v.docs {
		if int(id) < numDocs {
			lens.Set(int(id), rec.length)
		}
	}
	return lens.Snapshot()
}

// decrFor returns the term's main document-frequency decrement — how
// many shadowed documents its main posting list contains — and the
// memoized probe cost. Membership is resolved with the same
// skip-pointer binary search scoring uses (FreqForDoc).
func (v *View) decrFor(term string, main *index.Index) (int, int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e, ok := v.decr[term]; ok {
		return e.dec, e.probes
	}
	var e decrEntry
	if pl, ok := main.Lookup(term); ok {
		for id := range v.docs {
			_, probes, found := pl.FreqForDoc(id)
			e.probes += probes
			if found {
				e.dec++
			}
		}
	}
	v.decr[term] = e
	return e.dec, e.probes
}

// liveDF returns the term's live document frequency:
// (main df) - (shadowed docs present in the main list) + (live delta
// docs containing the term), plus the billable probe work. mainN is the
// structural main-list length (shard-local on a partitioned shard).
func (v *View) liveDF(term string, mainN int, main *index.Index) (int, int) {
	dec, probes := v.decrFor(term, main)
	return mainN - dec + len(v.postings[term]), probes
}

// reconcile filters the main-segment intersection through the shadow
// set and unions in the delta's own conjunction over terms. Inputs and
// outputs are ascending docID slices; work is the billable host cost.
func (v *View) reconcile(main []uint32, terms []string) ([]uint32, hwmodel.CPUWork) {
	var work hwmodel.CPUWork
	// Shadow filter: one hash probe per main candidate.
	kept := make([]uint32, 0, len(main))
	for _, d := range main {
		if v.docs[d] == nil {
			kept = append(kept, d)
		}
	}
	work.CachedProbes += int64(len(main))

	// Delta conjunction: intersect the per-term live posting slices.
	inter := v.intersectTerms(terms, &work)

	// Union (both ascending, disjoint: kept has no delta records, inter
	// only delta records).
	merged := mergeAscending(kept, inter)
	work.MergedElements += int64(len(kept) + len(inter))
	return merged, work
}

// intersectTerms intersects the view's live postings across the query
// terms (ascending docIDs). Any term with no live delta postings makes
// the delta-side conjunction empty.
func (v *View) intersectTerms(terms []string, work *hwmodel.CPUWork) []uint32 {
	if len(terms) == 0 {
		return nil
	}
	lists := make([][]uint32, len(terms))
	for i, t := range terms {
		ids := v.postings[t]
		if len(ids) == 0 {
			return nil
		}
		lists[i] = ids
	}
	// SvS order: shortest first.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	cur := lists[0]
	work.MergedElements += int64(len(cur))
	for _, next := range lists[1:] {
		cur = intersectAscending(cur, next)
		work.MergedElements += int64(len(next))
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func intersectAscending(a, b []uint32) []uint32 {
	out := make([]uint32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func mergeAscending(a, b []uint32) []uint32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
