package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// genDocs builds a synthetic document set with a small vocabulary so
// posting lists span many documents.
func genDocs(rng *rand.Rand, n, vocab int) []Document {
	docs := make([]Document, n)
	for i := range docs {
		length := 3 + rng.Intn(12)
		tokens := make([]string, length)
		for j := range tokens {
			tokens[j] = fmt.Sprintf("w%03d", rng.Intn(vocab))
		}
		docs[i] = Document{ID: uint32(i * 2), Tokens: tokens} // gaps in IDs
	}
	return docs
}

// indexesEqual compares two indexes term by term.
func indexesEqual(t *testing.T, a, b *Index) {
	t.Helper()
	if a.NumDocs != b.NumDocs {
		t.Fatalf("NumDocs %d vs %d", a.NumDocs, b.NumDocs)
	}
	if !reflect.DeepEqual(a.DocLens, b.DocLens) {
		t.Fatal("DocLens differ")
	}
	if !reflect.DeepEqual(a.Terms(), b.Terms()) {
		t.Fatal("term sets differ")
	}
	for _, term := range a.Terms() {
		pa, _ := a.Lookup(term)
		pb, _ := b.Lookup(term)
		if !reflect.DeepEqual(pa.EF.Decompress(), pb.EF.Decompress()) {
			t.Fatalf("term %q docIDs differ", term)
		}
		if !reflect.DeepEqual(pa.Freqs.Decode(), pb.Freqs.Decode()) {
			t.Fatalf("term %q freqs differ", term)
		}
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	docs := genDocs(rng, 2000, 50)

	seq := NewBuilder(CodecEF)
	for _, d := range docs {
		if err := seq.AddDocument(d.ID, d.Tokens); err != nil {
			t.Fatal(err)
		}
	}
	want, err := seq.Build()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 16} {
		got, err := BuildParallel(docs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		indexesEqual(t, want, got)
	}
}

func TestBuildParallelUnorderedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	docs := genDocs(rng, 500, 20)
	shuffled := make([]Document, len(docs))
	copy(shuffled, docs)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, err := BuildParallel(docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildParallel(shuffled, 4)
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, a, b)
}

func TestBuildParallelRejectsDuplicates(t *testing.T) {
	docs := []Document{
		{ID: 1, Tokens: []string{"aa"}},
		{ID: 1, Tokens: []string{"bb"}},
	}
	if _, err := BuildParallel(docs, 4); err == nil {
		t.Fatal("duplicate docIDs accepted")
	}
}

func TestBuildParallelEmpty(t *testing.T) {
	ix, err := BuildParallel(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs != 0 || ix.NumTerms() != 0 {
		t.Fatalf("empty build: %d docs %d terms", ix.NumDocs, ix.NumTerms())
	}
}

func TestBuildParallelMoreWorkersThanDocs(t *testing.T) {
	docs := []Document{
		{ID: 3, Tokens: []string{"xx", "yy"}},
		{ID: 7, Tokens: []string{"yy"}},
	}
	ix, err := BuildParallel(docs, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := ix.Lookup("yy")
	if !ok || !reflect.DeepEqual(p.EF.Decompress(), []uint32{3, 7}) {
		t.Fatalf("yy postings wrong: %+v", p)
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(92))
	docs := genDocs(rng, 20000, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildParallel(docs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSequentialBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(92))
	docs := genDocs(rng, 20000, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(CodecEF)
		for _, d := range docs {
			if err := bld.AddDocument(d.ID, d.Tokens); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
