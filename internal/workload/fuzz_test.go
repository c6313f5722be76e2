package workload

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"griffin/internal/ef"
	"griffin/internal/index"
)

// FuzzPartition splits an index of one to three fuzzed lists, some of
// them sparse enough that one block spans several windows, across one to
// eight shards (most counts not dividing the docIDs) and holds the split
// to these laws:
//
//   - every source posting lies in exactly one shard's window, and that
//     shard's list holds it with its frequency;
//   - each shard list is a run of whole source blocks, its rows the
//     source's own, and it equals the list-at-a-time reference;
//   - building the views allocates a bounded number of bytes a term a
//     shard, nothing a posting;
//   - a splice over a shard's list (a merge of its delta) decodes to the
//     postings it was given, and leaves the shard's list as it was.
//
// Run with `go test -fuzz=FuzzPartition ./internal/workload/`; the seed
// corpus runs as a normal test.
func FuzzPartition(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(2), uint8(2))
	f.Add(int64(4), uint8(5), uint8(7))
	f.Add(int64(5), uint8(4), uint8(2))
	f.Add(int64(6), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, lists, shards uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(shards)%8
		b := index.NewBuilder(index.CodecEF)
		for term := range 1 + int(lists)%3 {
			ids, freqs := fuzzList(r)
			if err := b.AddPostings(TermName(term), ids, freqs); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}

		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := PartitionIndex(ix, n)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(n*(512+len(ix.Terms())*512)) {
			t.Fatalf("%d shards of %d terms: the split allocated %d bytes", n, len(ix.Terms()), alloc)
		}
		if ref := refPartitionIndex(t, ix, n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d shards: the split differs from the list-at-a-time reference", n)
		}

		for _, term := range ix.Terms() {
			src, _ := ix.Lookup(term)
			ids, freqs := src.DecodeFrom(0)
			owner := make([]int, len(ids))
			for i := range owner {
				owner[i] = -1
			}
			for s, six := range got {
				pl, ok := six.Lookup(term)
				if !ok {
					continue
				}
				// A run of whole source blocks: its rows are the source's.
				first, _ := pl.EF.Row(0)
				k := sourceBlock(src.EF, first)
				if k < 0 {
					t.Fatalf("%d shards: shard %d term %q does not start at a source block", n, s, term)
				}
				for bk := range pl.EF.NumBlocks() {
					if rowOf(pl.EF, bk) != rowOf(src.EF, k+bk) {
						t.Fatalf("%d shards: shard %d term %q block %d is not source block %d", n, s, term, bk, k+bk)
					}
				}
				end := min((k+pl.EF.NumBlocks())*index.BlockSize, len(ids))
				readsBack(t, pl, ids[k*index.BlockSize:end], freqs[k*index.BlockSize:end])
				if pl.GlobalN != src.N {
					t.Fatalf("%d shards: shard %d term %q: GlobalN %d, want %d", n, s, term, pl.GlobalN, src.N)
				}
				// Every posting of the view in the shard's window is the
				// shard's, and no other shard's.
				lo, hi := six.Window.Span(ids[k*index.BlockSize : end])
				for i := k*index.BlockSize + lo; i < k*index.BlockSize+hi; i++ {
					if owner[i] >= 0 {
						t.Fatalf("%d shards: term %q doc %d lies in the windows of shards %d and %d", n, term, ids[i], owner[i], s)
					}
					owner[i] = s
				}
				spliceView(t, r, pl, ids[k*index.BlockSize:end], freqs[k*index.BlockSize:end])
			}
			for i, s := range owner {
				if s < 0 {
					t.Fatalf("%d shards: term %q doc %d lies in no shard's window", n, term, ids[i])
				}
			}
		}
	})
}

// spliceView splices a shard's list at a full block k with its postings
// from k on and some more docIDs above them, and holds the result and the
// list to what they must read.
func spliceView(t *testing.T, r *rand.Rand, pl *index.PostingList, ids, freqs []uint32) {
	t.Helper()
	full := pl.N / index.BlockSize
	if full == 0 {
		return
	}
	k := 1 + r.Intn(full)
	tids, tfreqs := slices.Clone(ids[k*index.BlockSize:]), slices.Clone(freqs[k*index.BlockSize:])
	last := ids[len(ids)-1]
	for j := range uint32(r.Intn(2 * index.BlockSize)) {
		if d := uint64(last) + uint64(j+1); d < 1<<32 {
			tids, tfreqs = append(tids, uint32(d)), append(tfreqs, 1+j%5)
		}
	}
	next, err := index.SpliceList(pl.Term, pl, k, tids, tfreqs)
	if err != nil {
		t.Fatalf("term %q spliced at block %d: %v", pl.Term, k, err)
	}
	readsBack(t, next, slices.Concat(ids[:k*index.BlockSize], tids), slices.Concat(freqs[:k*index.BlockSize], tfreqs))
	readsBack(t, pl, ids, freqs) // the shard's list is as it was
}

// fuzzList draws a list's postings, one of three shapes: random gaps of
// mixed widths, a dense run, or a sparse list whose gaps are so wide that
// one block spans several shards' windows. Lists run from one posting to
// three pages of blocks and more.
func fuzzList(r *rand.Rand) (ids, freqs []uint32) {
	const page = 1 << ef.PageShift * index.BlockSize
	m := 1 + r.Intn(3*page+index.BlockSize)
	if r.Intn(4) == 0 {
		m = 1 + r.Intn(2*index.BlockSize)
	}
	shape := r.Intn(3)
	if shape == 2 {
		m = 1 + r.Intn(3*index.BlockSize)
	}
	cur := uint32(r.Intn(1000))
	for range m {
		ids = append(ids, cur)
		freqs = append(freqs, 1+uint32(r.Intn(1<<uint(r.Intn(9)))))
		switch shape {
		case 0:
			cur += 1 + uint32(r.Intn(1<<uint(r.Intn(12))))
		case 1:
			cur++
		case 2:
			cur += 1 + uint32(r.Intn(1<<20))
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
