package ef_test

import (
	"runtime"
	"slices"
	"testing"

	"griffin/internal/ef"
	"griffin/internal/index"
	"griffin/internal/workload"
)

// A list spliced from a shard's view (a merge of a shard's delta) reads
// back the view's postings before k and the tail after it once the shard
// and its source are gone: the view starts mid-page, so the splice keeps
// its Base and the rows before it in the first page, and whatever the
// successor shares it keeps alive itself.
func TestSplicedSuccessorOutlivesItsShard(t *testing.T) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs: 200_000, NumTerms: 20, MaxListLen: 60_000, MinListLen: 500,
		Alpha: 0.9, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ k, tail int }{ // k -1: half the view's blocks
		{5, 0},
		{5, 300},
		{1<<ef.PageShift - 1, 300},
		{1 << ef.PageShift, 0},
		{1<<ef.PageShift + 5, 300},
		{-1, 0},
	} {
		shards, err := workload.PartitionIndex(c.Index, 2)
		if err != nil {
			t.Fatal(err)
		}
		pl, _ := shards[1].Lookup(workload.TermName(0))
		if pl.EF.NumBlocks() < 2<<ef.PageShift || pl.EF.Base == 0 {
			t.Fatalf("the longest shard list has %d blocks from row %d, want two pages from mid-page", pl.EF.NumBlocks(), pl.EF.Base)
		}
		k := tc.k
		if k < 0 {
			k = pl.EF.NumBlocks() / 2
		}
		ids, freqs := pl.DecodeFrom(0)
		ids, freqs = ids[:k*ef.BlockSize], freqs[:k*ef.BlockSize]
		tids, tfreqs := make([]uint32, tc.tail), make([]uint32, tc.tail)
		for i := range tids {
			tids[i], tfreqs[i] = ids[len(ids)-1]+uint32(1+i), uint32(1+i%7)
		}
		next, err := index.SpliceList(pl.Term, pl, k, tids, tfreqs)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(shards) // the last use: the shards are garbage from here
		runtime.GC()
		gotIDs, gotFreqs := next.DecodeFrom(0)
		if !slices.Equal(gotIDs, slices.Concat(ids, tids)) || !slices.Equal(gotFreqs, slices.Concat(freqs, tfreqs)) {
			t.Fatalf("k=%d tail=%d: the successor does not read back its postings", k, tc.tail)
		}
		for b := range next.EF.NumBlocks() {
			if got, want := next.EF.First(b), gotIDs[b*ef.BlockSize]; got != want {
				t.Fatalf("k=%d tail=%d: block %d's skip pointer is %d, want %d", k, tc.tail, b, got, want)
			}
		}
	}
}
