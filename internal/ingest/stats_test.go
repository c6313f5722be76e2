package ingest

import (
	"math/rand"
	"runtime"
	"testing"

	"griffin/internal/index"
)

// statsOf splits the pages across workers and adds up their partials:
// whatever the worker count, it is the serial fold — the top live
// document in the first worker's run, in the last's, or behind pages of
// zeros, and pages of every width.
func TestStatsOfSplitsExactly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(24))
	const pages = 100
	for _, top := range []int{0, 1, 17, pages / 2, pages - 1} {
		lens := make([]uint32, pages<<index.DocLenShift-5)
		for d := range lens[:min(len(lens), (top+1)<<index.DocLenShift)] {
			if r.Intn(3) > 0 {
				lens[d] = uint32(r.Int63n(1 << (d >> index.DocLenShift % 33)))
			}
		}
		var want corpusStats
		for d, l := range lens {
			if l > 0 {
				want.lenSum += uint64(l)
				want.lenCnt++
				want.numDocs = d + 1
			}
		}
		table := index.NewLenTable(lens)
		for _, procs := range []int{1, 2, 3, 7} {
			runtime.GOMAXPROCS(procs)
			if got := statsOf(table); got != want {
				t.Errorf("top page %d, %d workers: %+v, the serial fold %+v", top, procs, got, want)
			}
		}
		if got := topLive(table, len(lens)); got != want.numDocs {
			t.Errorf("top page %d: topLive = %d, want %d", top, got, want.numDocs)
		}
	}
}
