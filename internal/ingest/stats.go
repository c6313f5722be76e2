package ingest

import (
	"runtime"
	"sync"

	"griffin/internal/bitutil"
	"griffin/internal/index"
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

// statsOf scans a seed segment's document-length table. The pages are
// split into one run per GOMAXPROCS worker, each summing exact integer
// partials, so the result is the serial scan's whatever the split: a
// packed page costs an unpack, and a seed of millions of documents would
// otherwise add its whole scan to a live server's start.
func statsOf(lens index.LenTable) corpusStats {
	np := lens.NumPages()
	workers := max(1, min(runtime.GOMAXPROCS(0), np/16))
	parts := make([]corpusStats, workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [1 << index.DocLenShift]uint32
			var s corpusStats // a local, not parts[w]: the workers' partials share cache lines
			for p := w * np / workers; p < (w+1)*np/workers; p++ {
				for i, l := range lensPage(lens, p, &buf) {
					if l > 0 {
						s.lenSum += uint64(l)
						s.lenCnt++
						s.numDocs = p<<index.DocLenShift + i + 1
					}
				}
			}
			parts[w] = s
		}()
	}
	wg.Wait()
	var s corpusStats
	for _, part := range parts {
		s.lenSum += part.lenSum
		s.lenCnt += part.lenCnt
		s.numDocs = max(s.numDocs, part.numDocs)
	}
	return s
}

// lensPage returns page p of lens unpacked into buf, or nil when the page
// is of width 0 and so holds only zeros.
func lensPage(lens index.LenTable, p int, buf *[1 << index.DocLenShift]uint32) []uint32 {
	words, width := lens.Page(p)
	if width == 0 {
		return nil
	}
	dst := buf[:min(len(buf), lens.Len()-p<<index.DocLenShift)]
	bitutil.Unpack(dst, words, width)
	return dst
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

// topLive returns 1 + the highest d < below whose length in lens is
// nonzero, 0 when there is none — the descent that finds the collection
// size when the top document dies. A page of width 0 is skipped unread
// (a table stretched over a docID gap is such pages, so a gap costs a
// compare per page, not a probe per docID).
func topLive(lens index.LenTable, below int) int {
	var buf [1 << index.DocLenShift]uint32
	for p := min(lens.NumPages(), (below+len(buf)-1)>>index.DocLenShift) - 1; p >= 0; p-- {
		pg := lensPage(lens, p, &buf)
		for i := min(len(pg), below-p<<index.DocLenShift) - 1; i >= 0; i-- {
			if pg[i] != 0 {
				return p<<index.DocLenShift + i + 1
			}
		}
	}
	return 0
}
