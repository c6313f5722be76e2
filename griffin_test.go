package griffin

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestPublicAPIQuickstart exercises the facade end to end the way the
// README's quickstart does.
func TestPublicAPIQuickstart(t *testing.T) {
	b := NewIndexBuilder()
	docs := []string{
		"the quick brown fox jumps over the lazy dog",
		"a quick brown dog outpaces a lazy fox",
		"graphics processors accelerate information retrieval",
		"search engines intersect posting lists quickly",
	}
	for i, text := range docs {
		if err := b.AddDocument(uint32(i), Tokenize(text)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []Mode{CPUOnly, GPUOnly, Hybrid} {
		eng, err := NewEngine(ix, Config{Mode: mode, Device: NewDevice()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Search([]string{"quick", "fox"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Docs) != 2 {
			t.Fatalf("%v: got %d results, want 2 (docs 0 and 1)", mode, len(res.Docs))
		}
		for _, d := range res.Docs {
			if d.DocID != 0 && d.DocID != 1 {
				t.Fatalf("%v: unexpected doc %d", mode, d.DocID)
			}
		}
		if res.Stats.Latency <= 0 {
			t.Fatalf("%v: no simulated latency recorded", mode)
		}
	}
}

func TestPublicAPISerialization(t *testing.T) {
	b := NewIndexBuilder()
	if err := b.AddDocument(0, Tokenize("hello world")); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteIndex(ix, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTerms() != ix.NumTerms() {
		t.Fatalf("round trip lost terms: %d vs %d", got.NumTerms(), ix.NumTerms())
	}
}

func TestPublicAPIOpenIndex(t *testing.T) {
	b := NewIndexBuilder()
	if err := b.AddDocument(0, Tokenize("hello mapped world")); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.grif")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteIndex(ix, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(got, Config{Mode: CPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search([]string{"mapped", "world"})
	if err != nil || len(res.Docs) != 1 || res.Docs[0].DocID != 0 {
		t.Fatalf("search over the opened index = %+v, %v", res, err)
	}
	if _, err := OpenIndex(filepath.Join(t.TempDir(), "missing.grif")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("OpenIndex of a missing file: %v", err)
	}
}

func TestPublicAPIWorkload(t *testing.T) {
	spec := DefaultCorpusSpec()
	spec.NumDocs = 100_000
	spec.NumTerms = 30
	spec.MaxListLen = 20_000
	spec.MinListLen = 100
	c, err := GenerateCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	qs := GenerateQueryLog(c, QuerySpec{NumQueries: 20, PopularityAlpha: 0.5, Seed: 3})
	if len(qs) != 20 {
		t.Fatalf("got %d queries", len(qs))
	}
	eng, err := NewEngine(c.Index, Config{Mode: Hybrid, Device: NewDevice()})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, err := eng.Search(q.Terms); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPICustomPolicy(t *testing.T) {
	b := NewIndexBuilder()
	if err := b.AddPostings("a", []uint32{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPostings("b", []uint32{2, 3, 4}, nil); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ix, Config{
		Mode:   Hybrid,
		Device: NewDevice(),
		Policy: &RatioPolicy{Crossover: 64, Sticky: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 2 {
		t.Fatalf("candidates = %d, want 2", res.Stats.Candidates)
	}
}
