package index

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func TestBuildFromDocuments(t *testing.T) {
	b := NewBuilder(CodecEF)
	docs := []struct {
		id     uint32
		tokens []string
	}{
		{0, []string{"ppopp", "austria", "2018"}},
		{3, []string{"austria", "vienna", "austria"}},
		{7, []string{"ppopp", "vienna"}},
	}
	for _, d := range docs {
		if err := b.AddDocument(d.id, d.tokens); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs != 8 {
		t.Fatalf("NumDocs = %d, want 8", ix.NumDocs)
	}
	p, ok := ix.Lookup("austria")
	if !ok {
		t.Fatal("austria not indexed")
	}
	if got := p.EF.Decompress(); !reflect.DeepEqual(got, []uint32{0, 3}) {
		t.Fatalf("austria docIDs = %v", got)
	}
	if p.Freqs.At(1) != 2 {
		t.Fatalf("austria freq in doc 3 = %d, want 2", p.Freqs.At(1))
	}
	if _, ok := ix.Lookup("missing"); ok {
		t.Fatal("lookup of unindexed term succeeded")
	}
	if ix.NumTerms() != 4 {
		t.Fatalf("NumTerms = %d, want 4", ix.NumTerms())
	}
}

func TestAddDocumentOrderEnforced(t *testing.T) {
	b := NewBuilder(CodecEF)
	if err := b.AddDocument(5, []string{"xx"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocument(5, []string{"yy"}); !errors.Is(err, ErrDocOrder) {
		t.Fatalf("err = %v, want ErrDocOrder", err)
	}
	if err := b.AddDocument(4, []string{"yy"}); !errors.Is(err, ErrDocOrder) {
		t.Fatalf("err = %v, want ErrDocOrder", err)
	}
}

func TestAddPostingsAndDocLens(t *testing.T) {
	b := NewBuilder(CodecEF)
	ids := []uint32{1, 5, 9, 200}
	freqs := []uint32{2, 1, 7, 3}
	if err := b.AddPostings("zebra", ids, freqs); err != nil {
		t.Fatal(err)
	}
	b.SetDocLen(200, 50)
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ix.Lookup("zebra")
	if !reflect.DeepEqual(p.EF.Decompress(), ids) {
		t.Fatalf("docIDs = %v", p.EF.Decompress())
	}
	if !reflect.DeepEqual(p.Freqs.Decode(), freqs) {
		t.Fatalf("freqs = %v", p.Freqs.Decode())
	}
	if ix.DocLen(200) != 50 {
		t.Fatalf("DocLen(200) = %d", ix.DocLen(200))
	}
	if ix.DocLen(1) != 1 {
		t.Fatalf("unknown DocLen should default to 1, got %d", ix.DocLen(1))
	}
}

func TestAddPostingsRejectsNonAscending(t *testing.T) {
	b := NewBuilder(CodecEF)
	if err := b.AddPostings("t", []uint32{3, 3}, nil); err == nil {
		t.Fatal("expected error for duplicate docID")
	}
	if err := b.AddPostings("u", []uint32{5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPostings("u", []uint32{4}, nil); err == nil {
		t.Fatal("expected error for descending append")
	}
}

func TestAddPostingsFreqsLengthMismatch(t *testing.T) {
	b := NewBuilder(CodecEF)
	if err := b.AddPostings("t", []uint32{1, 2}, []uint32{1}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestSkipPointers(t *testing.T) {
	b := NewBuilder(CodecEF)
	n := 1000
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i * 7)
	}
	if err := b.AddPostings("t", ids, nil); err != nil {
		t.Fatal(err)
	}
	ix, _ := b.Build()
	p, _ := ix.Lookup("t")
	// A block's skip pointer is the first docID of its table row.
	skips := EFView{L: p.EF}
	wantBlocks := (n + BlockSize - 1) / BlockSize
	if skips.NumBlocks() != wantBlocks {
		t.Fatalf("skips = %d, want %d", skips.NumBlocks(), wantBlocks)
	}
	for i := range wantBlocks {
		if first := skips.BlockFirst(i); first != ids[i*BlockSize] {
			t.Fatalf("skip %d first = %d, want %d", i, first, ids[i*BlockSize])
		}
	}
}

func TestBlockListViews(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	n := 777
	ids := make([]uint32, n)
	cur := uint32(0)
	for i := range ids {
		cur += 1 + uint32(rng.Intn(50))
		ids[i] = cur
	}
	b := NewBuilder(CodecEF)
	if err := b.AddPostings("t", ids, nil); err != nil {
		t.Fatal(err)
	}
	ix, _ := b.Build()
	p, _ := ix.Lookup("t")

	views := map[string]BlockList{
		"ef":  EFView{p.EF},
		"raw": RawView{ids},
	}
	for name, v := range views {
		if v.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", name, v.Len(), n)
		}
		var got []uint32
		buf := make([]uint32, BlockSize)
		total := 0
		for i := 0; i < v.NumBlocks(); i++ {
			if v.BlockFirst(i) != ids[i*BlockSize] {
				t.Fatalf("%s: block %d first mismatch", name, i)
			}
			cnt := v.DecompressBlock(i, buf)
			if cnt != v.BlockLen(i) {
				t.Fatalf("%s: block %d len %d != BlockLen %d", name, i, cnt, v.BlockLen(i))
			}
			got = append(got, buf[:cnt]...)
			total += cnt
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("%s: reassembled list differs", name)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	b := NewBuilder(CodecEF)
	terms := []string{"alpha", "beta", "gamma", "a-long-term-name"}
	want := map[string][]uint32{}
	for _, term := range terms {
		n := 1 + rng.Intn(500)
		ids := make([]uint32, n)
		freqs := make([]uint32, n)
		cur := uint32(0)
		for i := range ids {
			cur += 1 + uint32(rng.Intn(100))
			ids[i] = cur
			freqs[i] = 1 + uint32(rng.Intn(5))
		}
		if err := b.AddPostings(term, ids, freqs); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			b.SetDocLen(id, 10+uint32(rng.Intn(100)))
		}
		want[term] = ids
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if got.NumDocs != ix.NumDocs || got.AvgDocLen != ix.AvgDocLen {
		t.Fatalf("stats mismatch: %d/%f vs %d/%f", got.NumDocs, got.AvgDocLen, ix.NumDocs, ix.AvgDocLen)
	}
	if !reflect.DeepEqual(got.DocLens, ix.DocLens) {
		t.Fatal("DocLens mismatch")
	}
	if !reflect.DeepEqual(got.Terms(), ix.Terms()) {
		t.Fatal("terms mismatch")
	}
	for term, ids := range want {
		p, ok := got.Lookup(term)
		if !ok {
			t.Fatalf("term %q lost", term)
		}
		if !reflect.DeepEqual(p.EF.Decompress(), ids) {
			t.Fatalf("term %q docIDs differ after round trip", term)
		}
		orig, _ := ix.Lookup(term)
		if !reflect.DeepEqual(p.Freqs.Decode(), orig.Freqs.Decode()) {
			t.Fatalf("term %q freqs differ", term)
		}
		got, want := EFView{L: p.EF}, EFView{L: orig.EF}
		if got.NumBlocks() != want.NumBlocks() {
			t.Fatalf("term %q: %d blocks after round trip, want %d", term, got.NumBlocks(), want.NumBlocks())
		}
		for i := range want.NumBlocks() {
			if got.BlockFirst(i) != want.BlockFirst(i) {
				t.Fatalf("term %q skip %d differs", term, i)
			}
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE furthermore this is not an index"),
		[]byte("GRIF\xff\xff\xff\xff"),
	} {
		if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("ReadIndex(%q): err = %v, want ErrBadFormat", data, err)
		}
	}
}

func TestSerializeEmptyIndex(t *testing.T) {
	ix, err := NewBuilder(CodecEF).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs != 0 || got.NumTerms() != 0 {
		t.Fatalf("empty index round trip: %d docs %d terms", got.NumDocs, got.NumTerms())
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"PPoPP-2018 Vienna/Austria", []string{"ppopp", "2018", "vienna", "austria"}},
		{"a b c", nil}, // single-rune tokens dropped
		{"", nil},
		{"Don't stop", []string{"don", "stop"}},
		{"  multiple   spaces  ", []string{"multiple", "spaces"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestListSizes(t *testing.T) {
	b := NewBuilder(CodecEF)
	_ = b.AddPostings("a", []uint32{1, 2, 3}, nil)
	_ = b.AddPostings("b", []uint32{5}, nil)
	ix, _ := b.Build()
	if got := ix.ListSizes(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("ListSizes = %v", got)
	}
}

func BenchmarkBuild10KTerms(b *testing.B) {
	rng := rand.New(rand.NewSource(72))
	type tl struct {
		term string
		ids  []uint32
	}
	var data []tl
	for i := 0; i < 200; i++ {
		n := 50 + rng.Intn(500)
		ids := make([]uint32, n)
		cur := uint32(0)
		for j := range ids {
			cur += 1 + uint32(rng.Intn(100))
			ids[j] = cur
		}
		data = append(data, tl{term: string(rune('a'+i%26)) + string(rune('0'+i/26)), ids: ids})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(CodecEF)
		for _, d := range data {
			if err := bld.AddPostings(d.term, d.ids, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
