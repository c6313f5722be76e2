package index

import (
	"sort"

	"griffin/internal/ef"
)

// Window is the docIDs [Lo, Hi) that one shard of a range partition of an
// index owns (Index.Shard). The last shard's Hi is 1<<32: it also owns
// every docID appended above the index's NumDocs.
type Window struct{ Lo, Hi uint64 }

// ShardWindow returns the window of shard s of n over an index of
// numDocs docIDs: [s·numDocs/n, (s+1)·numDocs/n), the last open above.
func ShardWindow(s, n, numDocs int) Window {
	w := Window{Lo: uint64(s) * uint64(numDocs) / uint64(n), Hi: 1 << 32}
	if s < n-1 {
		w.Hi = uint64(s+1) * uint64(numDocs) / uint64(n)
	}
	return w
}

// Span returns where the run of the ascending ids that lies in w starts
// and ends, ids[lo:hi], found by two binary searches.
func (w *Window) Span(ids []uint32) (lo, hi int) {
	lo = sort.Search(len(ids), func(i int) bool { return uint64(ids[i]) >= w.Lo })
	hi = lo + sort.Search(len(ids)-lo, func(i int) bool { return uint64(ids[lo+i]) >= w.Hi })
	return lo, hi
}

// Count returns how many of pl's postings lie in w: the term's document
// frequency on the shard w is the window of.
func (w *Window) Count(pl *PostingList) int { return below(pl.EF, w.Hi) - below(pl.EF, w.Lo) }

// below returns how many of l's docIDs are below x: a binary search of
// the skip pointers, then of the one block that can hold x, in place.
func below(l *ef.List, x uint64) int {
	b := sort.Search(l.NumBlocks(), func(i int) bool { return uint64(l.First(i)) >= x }) - 1
	if b < 0 {
		return 0
	}
	r, _ := l.Row(b)
	return b*BlockSize + sort.Search(int(r.N), func(j int) bool { return uint64(l.Get(b, j)) >= x })
}

// Shard returns the shard of ix that owns the docIDs in w: for each term,
// the run of its list's whole blocks that overlap w, as a view that
// shares the list's rows, words and frequencies (ef.List.View) and copies
// no posting, stamped with the list's collection-wide document frequency
// (GlobalN). A term none of whose blocks overlaps w is not in the shard.
// The shard shares ix's collection statistics and doc-length table.
func (ix *Index) Shard(w Window) *Index {
	sh := &Index{NumDocs: ix.NumDocs, DocLens: ix.DocLens, AvgDocLen: ix.AvgDocLen, Window: &w, terms: make(map[string]*PostingList)}
	for term, pl := range ix.terms {
		l, nb := pl.EF, pl.EF.NumBlocks()
		// The first block whose last docID is in or past w, and the first
		// block past it.
		k := sort.Search(nb, func(i int) bool {
			r, _ := l.Row(i)
			return uint64(l.Get(i, int(r.N)-1)) >= w.Lo
		})
		end := k + sort.Search(nb-k, func(i int) bool { return uint64(l.First(k+i)) >= w.Hi })
		if k == end {
			continue
		}
		v := l.View(k, end)
		sh.terms[term] = &PostingList{Term: term, N: v.N, EF: v, Freqs: pl.Freqs.view(k, end), GlobalN: pl.ScoringN()}
	}
	return sh
}
