package index

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"griffin/internal/ef"
)

// randomPostings draws n strictly ascending docIDs with gaps (so inserts
// have room) and parallel frequencies of uneven widths.
func randomPostings(r *rand.Rand, n int) (ids, freqs []uint32) {
	ids = make([]uint32, n)
	freqs = make([]uint32, n)
	d := uint32(r.Intn(50))
	for i := range ids {
		d += 2 + uint32(r.Intn(40))
		ids[i] = d
		freqs[i] = 1 + uint32(r.Intn(1<<uint(r.Intn(9))))
	}
	return ids, freqs
}

// build encodes one list through the Builder, the reference every splice
// must equal.
func buildList(t testing.TB, ids, freqs []uint32) *PostingList {
	t.Helper()
	b := NewBuilder(CodecEF)
	if err := b.AddPostings("t", ids, freqs); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := ix.Lookup("t")
	return pl
}

// sameList reports whether two lists hold the same postings in the same
// encoding: term and counts, and in both block tables the same rows and
// the same run (ef.Page.Span) in every page, wherever the runs' words lie
// — a spliced page's Words are a prefix of its run.
func sameList(a, b *PostingList) bool {
	return a.Term == b.Term && a.N == b.N && a.GlobalN == b.GlobalN &&
		a.EF.N == b.EF.N && samePages(a.EF.Pages, b.EF.Pages) &&
		a.Freqs.n == b.Freqs.n && samePages(a.Freqs.pages, b.Freqs.pages)
}

func samePages[R comparable](a, b []ef.Page[R]) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !slices.Equal(a[p].Rows, b[p].Rows) || !slices.Equal(pageRun(&a[p]), pageRun(&b[p])) {
			return false
		}
	}
	return true
}

// pageRun returns a page's run, its Words and then its owned run.
func pageRun[R any](pg *ef.Page[R]) []uint64 {
	return append(slices.Clip(pg.Words), pg.Owned()...)
}

// listBytes returns what WriteTo writes for an index of pl alone.
func listBytes(t testing.TB, pl *PostingList) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Assemble([]*PostingList{pl}, 0, LenTable{}, 0).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpliceMergeEqualsRebuildPerList is the block-independence property
// the live merge rests on: for every split block k, keeping blocks [0,k)
// of a list and re-encoding an edited tail gives exactly the list the
// Builder produces from the edited postings as a whole.
func TestSpliceMergeEqualsRebuildPerList(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 127, 128, 129, 255, 256, 257, 700, 65*BlockSize + 3} {
		ids, freqs := randomPostings(r, n)
		old := buildList(t, ids, freqs)
		nb := old.EF.NumBlocks()
		for k := 0; k <= nb; k++ {
			if k > 0 && old.EF.Block(k-1).N != BlockSize {
				continue // a prefix must end on a full block
			}
			tailIDs, tailFreqs := old.DecodeFrom(k)
			if !reflect.DeepEqual(tailIDs, ids[k*BlockSize:]) || !reflect.DeepEqual(tailFreqs, freqs[k*BlockSize:]) {
				t.Fatalf("n=%d: DecodeFrom(%d) diverges from the input", n, k)
			}
			// Edit the tail: drop every third posting, squeeze a new docID
			// into each gap that has room, append two past the end.
			var eIDs, eFreqs []uint32
			for i, d := range tailIDs {
				if i%3 != 1 {
					eIDs = append(eIDs, d)
					eFreqs = append(eFreqs, tailFreqs[i])
				}
				if i%5 == 0 {
					eIDs = append(eIDs, d+1)
					eFreqs = append(eFreqs, 300)
				}
			}
			last := ids[n-1]
			eIDs = append(eIDs, last+7, last+9)
			eFreqs = append(eFreqs, 1, 2)

			got, err := SpliceList("t", old, k, eIDs, eFreqs)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			wantIDs := append(append([]uint32(nil), ids[:k*BlockSize]...), eIDs...)
			wantFreqs := append(append([]uint32(nil), freqs[:k*BlockSize]...), eFreqs...)
			want := buildList(t, wantIDs, wantFreqs)
			if !sameList(got, want) || !bytes.Equal(listBytes(t, got), listBytes(t, want)) {
				t.Fatalf("n=%d k=%d: spliced list differs from the rebuilt one", n, k)
			}
			for p := range k >> ef.PageShift {
				if &got.EF.Pages[p].Words[0] != &old.EF.Pages[p].Words[0] || &got.Freqs.pages[p].Words[0] != &old.Freqs.pages[p].Words[0] {
					t.Fatalf("n=%d k=%d: prefix page %d was copied, not shared", n, k, p)
				}
			}
		}
	}
}

func TestSpliceListRejectsBadJoins(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ids, freqs := randomPostings(r, 300)
	old := buildList(t, ids, freqs)
	if _, err := SpliceList("t", old, 1, []uint32{ids[127]}, []uint32{1}); !errors.Is(err, ef.ErrNotAscending) {
		t.Errorf("tail starting at the prefix's last docID: err = %v, want ErrNotAscending", err)
	}
	if _, err := SpliceList("t", old, 3, nil, nil); err == nil {
		t.Error("splice behind a partial block accepted")
	}
	if _, err := SpliceList("t", old, 4, nil, nil); err == nil {
		t.Error("splice past the last block accepted")
	}
	if _, err := SpliceList("t", old, 0, []uint32{1, 2}, []uint32{1}); err == nil {
		t.Error("freqs shorter than docIDs accepted")
	}
}

func TestAssembleEqualsBuild(t *testing.T) {
	b := NewBuilder(CodecEF)
	for id, toks := range [][]string{{"a", "b"}, {"b"}, {"a", "c", "c"}} {
		if err := b.AddDocument(uint32(id), toks); err != nil {
			t.Fatal(err)
		}
	}
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var lists []*PostingList
	for _, term := range want.Terms() {
		pl, _ := want.Lookup(term)
		lists = append(lists, pl)
	}
	got := Assemble(lists, want.NumDocs, want.DocLens, want.AvgDocLen)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("assembled index differs from the built one")
	}
}

// TestAddPostingsBulk pins the bulk path's contract: runs append across
// calls, a bad run is rejected whole, nil freqs mean 1.
func TestAddPostingsBulk(t *testing.T) {
	b := NewBuilder(CodecEF)
	if err := b.AddPostings("t", []uint32{3, 9}, []uint32{2, 5}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]uint32{{9, 12}, {10, 10}, {12, 11}} {
		if err := b.AddPostings("t", bad, nil); !errors.Is(err, ef.ErrNotAscending) {
			t.Errorf("run %v after docID 9: err = %v, want ErrNotAscending", bad, err)
		}
	}
	if err := b.AddPostings("t", []uint32{10, 40}, nil); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := ix.Lookup("t")
	if got := pl.EF.Decompress(); !reflect.DeepEqual(got, []uint32{3, 9, 10, 40}) {
		t.Errorf("docIDs = %v", got)
	}
	if got := pl.Freqs.Decode(); !reflect.DeepEqual(got, []uint32{2, 5, 1, 1}) {
		t.Errorf("freqs = %v", got)
	}
	if ix.NumDocs != 41 {
		t.Errorf("NumDocs = %d, want 41", ix.NumDocs)
	}
}

// TestWriteToAllocatesItsBuffer: serializing goes through one 1 MB
// buffer, not through a per-field allocation the size of the field.
func TestWriteToAllocatesItsBuffer(t *testing.T) {
	b := NewBuilder(CodecEF)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		ids, freqs := randomPostings(r, 20000)
		if err := b.AddPostings(string(rune('a'+i)), ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	for d := uint32(0); d <= 2_000_000; d += lenPageSize {
		b.SetDocLen(d, 1<<31) // every page of lengths 32 bits wide: 8 MB of them
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Grow(16 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := ix.WriteTo(&out)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n < 8<<20 {
		t.Fatalf("fixture serializes to %d bytes, want > 8 MB", n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("WriteTo of %d bytes allocated %d bytes, want <= 2 MB", n, got)
	}
}
