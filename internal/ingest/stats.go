package ingest

import (
	"griffin/internal/index"
	"griffin/internal/pvec"
)

// corpusStats are the live collection statistics — the raw ingredients
// of index.Builder's NumDocs/AvgDocLen arithmetic, so a snapshot scores
// with, and a merge stamps, exactly what a fresh build over the live
// corpus would compute. The writer keeps one running set per mutation
// (and per replayed record) under its lock; a published snapshot carries
// a copy beside the view it describes.
type corpusStats struct {
	// numDocs is the highest live docID + 1.
	numDocs int
	// lenSum is the total live token count (uint64, exact).
	lenSum uint64
	// lenCnt is the number of live documents.
	lenCnt int
}

// statsOf scans a seed segment's document-length table.
func statsOf(lens pvec.Vec[uint32]) corpusStats {
	var s corpusStats
	for p, pg := range lens.Pages() {
		for i, l := range pg {
			if l > 0 {
				s.lenSum += uint64(l)
				s.lenCnt++
				s.numDocs = p<<index.DocLenShift + i + 1
			}
		}
	}
	return s
}

// avgDocLen is the live mean document length with index.Builder's exact
// arithmetic (uint64 sum / int count, divided in float64).
func (s corpusStats) avgDocLen() float64 {
	if s.lenCnt == 0 {
		return 0
	}
	return float64(s.lenSum) / float64(s.lenCnt)
}

// replace accounts for docID's live length changing from old to new (0 =
// not live, on either side): subtract the old length, add the new, track
// the highest live docID. Only the death of the top document needs more
// than arithmetic — top(below) must then return the collection size given
// that no document at or above below is live, seeing the mutation just
// applied. It is called, not kept.
func (s *corpusStats) replace(docID uint32, old, new uint32, top func(below int) int) {
	if old > 0 {
		s.lenSum -= uint64(old)
		s.lenCnt--
	}
	switch {
	case new > 0:
		s.lenSum += uint64(new)
		s.lenCnt++
		s.numDocs = max(s.numDocs, int(docID)+1)
	case old > 0 && int(docID)+1 == s.numDocs:
		s.numDocs = top(int(docID))
	}
}

// topLive returns 1 + the highest d < below whose entry in a length
// table's pages is nonzero, 0 when there is none — the descent that
// finds the collection size when the top document dies. A page found all
// zero is not scanned again where the table repeats it (pvec stretches a
// table over a docID gap with one shared page of zeros, so a gap costs a
// pointer compare per page, not a probe per docID).
func topLive(pages [][]uint32, below int) int {
	const size = 1 << index.DocLenShift
	var zero []uint32
	for p := min(len(pages), (below+size-1)>>index.DocLenShift) - 1; p >= 0; p-- {
		pg := pages[p]
		if len(pg) > 0 && len(pg) <= len(zero) && &pg[0] == &zero[0] {
			continue
		}
		n := min(len(pg), below-p<<index.DocLenShift)
		for i := n - 1; i >= 0; i-- {
			if pg[i] != 0 {
				return p<<index.DocLenShift + i + 1
			}
		}
		if n == len(pg) {
			zero = pg
		}
	}
	return 0
}
