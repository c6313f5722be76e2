package workload

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"griffin/internal/ef"
	"griffin/internal/index"
)

// FuzzPartition splits an index of one to three fuzzed lists across one to
// eight shards and holds the split to three laws:
//
//   - it builds the shards the list-at-a-time split builds (sameContents,
//     rows included);
//   - after a forced collection, with nothing but the shards left to keep
//     their regions mapped, every shard list's rows and words read back
//     the postings dealt to it: a region unmapped under a live page faults
//     here;
//   - a splice over a sealed shard page decodes to the postings it was
//     given: it copies the page's rows and words before it writes;
//   - split again behind StartPartition, the lists read the same to
//     lookups made in a fuzzed order from a fuzzed number of goroutines
//     while the split runs (lookupsWhileSplitting).
//
// Run with `go test -fuzz=FuzzPartition ./internal/workload/`; the seed
// corpus runs as a normal test.
func FuzzPartition(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(2), uint8(3))
	f.Add(int64(4), uint8(5), uint8(7))
	f.Add(int64(5), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, lists, shards uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(shards)%8
		got, want := fuzzSplit(t, r, rand.New(rand.NewSource(^seed)), 1+int(lists)%3, n)

		// Only the shards can keep their regions mapped now.
		runtime.GC()
		runtime.GC()
		for s, six := range got {
			if len(six.Terms()) != len(want[s]) {
				t.Fatalf("%d shards: shard %d holds %d terms, want %d", n, s, len(six.Terms()), len(want[s]))
			}
			for term, w := range want[s] {
				pl, ok := six.Lookup(term)
				if !ok {
					t.Fatalf("%d shards: term %q missing from shard %d", n, term, s)
				}
				readsBack(t, pl, w[0], w[1])

				// A splice over the shard's sealed pages: its postings from
				// a full block k on, then some more of the shard's docIDs.
				full := pl.N / index.BlockSize
				if full == 0 {
					continue
				}
				k := 1 + r.Intn(full)
				tids, tfreqs := slices.Clone(w[0][k*index.BlockSize:]), slices.Clone(w[1][k*index.BlockSize:])
				last := w[0][len(w[0])-1]
				for j := range uint32(r.Intn(2 * index.BlockSize)) {
					if d := uint64(last) + uint64(n)*uint64(j+1); d < 1<<32 {
						tids, tfreqs = append(tids, uint32(d)), append(tfreqs, 1+j%5)
					}
				}
				next, err := index.SpliceList(term, pl, k, pl.EF.Stride, tids, tfreqs)
				if err != nil {
					t.Fatalf("%d shards: shard %d term %q spliced at block %d: %v", n, s, term, k, err)
				}
				readsBack(t, next, slices.Concat(w[0][:k*index.BlockSize], tids), slices.Concat(w[1][:k*index.BlockSize], tfreqs))
				readsBack(t, pl, w[0], w[1]) // the shard's list is as it was
			}
		}
		runtime.KeepAlive(got)
	})
}

// fuzzSplit splits an index of lists fuzzed lists across n shards,
// checks the split against the list-at-a-time split, waited for and
// looked up while it runs in an order drawn from order, and returns the
// shards and, per shard and term, the docIDs and frequencies dealt to it.
// Nothing else it made is reachable once it returns.
func fuzzSplit(t *testing.T, r, order *rand.Rand, lists, n int) ([]*index.Index, []map[string][2][]uint32) {
	t.Helper()
	b := index.NewBuilder(index.CodecEF)
	want := make([]map[string][2][]uint32, n)
	for s := range want {
		want[s] = map[string][2][]uint32{}
	}
	for term := range lists {
		ids, freqs := fuzzList(r, n)
		if err := b.AddPostings(TermName(term), ids, freqs); err != nil {
			t.Fatal(err)
		}
		for i, d := range ids {
			s, w := ShardOf(d, n), want[ShardOf(d, n)][TermName(term)]
			want[s][TermName(term)] = [2][]uint32{append(w[0], d), append(w[1], freqs[i])}
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := PartitionIndex(ix, n)
	if err != nil {
		t.Fatal(err)
	}
	ref := refPartitionIndex(t, ix, n)
	for s := range ref {
		if !sameContents(got[s], ref[s]) {
			t.Fatalf("%d shards: shard %d differs from the list-at-a-time split's", n, s)
		}
	}
	lookupsWhileSplitting(t, order, ix, ref)
	return got, want
}

// fuzzList draws a list's postings, one of three shapes: random gaps of
// mixed widths, gaps that are multiples of shards (every posting on one
// shard), or a dense run. Lists run from one posting to three pages of
// blocks and more.
func fuzzList(r *rand.Rand, shards int) (ids, freqs []uint32) {
	const page = 1 << ef.PageShift * index.BlockSize
	m := 1 + r.Intn(3*page+index.BlockSize)
	if r.Intn(4) == 0 {
		m = 1 + r.Intn(2*index.BlockSize)
	}
	shape := r.Intn(3)
	cur := uint32(r.Intn(1000))
	for range m {
		ids = append(ids, cur)
		freqs = append(freqs, 1+uint32(r.Intn(1<<uint(r.Intn(9)))))
		switch shape {
		case 0:
			cur += 1 + uint32(r.Intn(1<<uint(r.Intn(12))))
		case 1:
			cur += uint32(shards * (1 + r.Intn(20)))
		case 2:
			cur++
		}
	}
	return ids, freqs
}

// readsBack fails unless pl holds exactly ids and freqs: every block's
// row (its first docID and count) and every posting, decoded a block at a
// time and through select.
func readsBack(t *testing.T, pl *index.PostingList, ids, freqs []uint32) {
	t.Helper()
	if pl.N != len(ids) {
		t.Fatalf("term %q holds %d postings, want %d", pl.Term, pl.N, len(ids))
	}
	v := index.EFView{L: pl.EF}
	for k := range pl.EF.NumBlocks() {
		blk := ids[k*index.BlockSize : min((k+1)*index.BlockSize, len(ids))]
		if v.BlockFirst(k) != blk[0] || v.BlockLen(k) != len(blk) {
			t.Fatalf("term %q block %d: row reads first %d of %d, want %d of %d",
				pl.Term, k, v.BlockFirst(k), v.BlockLen(k), blk[0], len(blk))
		}
		if j := len(blk) - 1; pl.EF.Get(k, j) != blk[j] {
			t.Fatalf("term %q block %d: Get(%d) = %d, want %d", pl.Term, k, j, pl.EF.Get(k, j), blk[j])
		}
	}
	gotIDs, gotFreqs := pl.DecodeFrom(0)
	if !slices.Equal(gotIDs, ids) || !slices.Equal(gotFreqs, freqs) {
		t.Fatalf("term %q does not decode to its postings", pl.Term)
	}
}
