package griffin_test

import (
	"fmt"
	"sort"

	"griffin"
)

// ExampleNewEngine indexes a few documents and runs one hybrid query.
func ExampleNewEngine() {
	b := griffin.NewIndexBuilder()
	_ = b.AddDocument(0, griffin.Tokenize("the quick brown fox"))
	_ = b.AddDocument(1, griffin.Tokenize("a quick brown dog"))
	_ = b.AddDocument(2, griffin.Tokenize("compressed posting lists"))
	ix, _ := b.Build()

	eng, _ := griffin.NewEngine(ix, griffin.Config{
		Mode:   griffin.Hybrid,
		Device: griffin.NewDevice(),
	})
	res, _ := eng.Search([]string{"quick", "brown"})
	ids := []int{int(res.Docs[0].DocID), int(res.Docs[1].DocID)}
	sort.Ints(ids)
	fmt.Println("matching docs:", ids)
	// Output:
	// matching docs: [0 1]
}

// ExampleEngine_Search shows the physical plan Griffin records for each
// query: the intersection's record says where it ran and how.
func ExampleEngine_Search() {
	b := griffin.NewIndexBuilder()
	// Two comparable lists and the ratio between them below 128: the
	// intersection is scheduled on the (simulated) GPU.
	a := make([]uint32, 0, 600)
	c := make([]uint32, 0, 900)
	for i := uint32(0); i < 3000; i += 5 {
		a = append(a, i)
	}
	for i := uint32(0); i < 3000; i += 3 {
		c = append(c, i)
	}
	_ = b.AddPostings("alpha", a, nil)
	_ = b.AddPostings("gamma", c, nil)
	ix, _ := b.Build()

	eng, _ := griffin.NewEngine(ix, griffin.Config{Mode: griffin.Hybrid, Device: griffin.NewDevice()})
	res, _ := eng.Search([]string{"alpha", "gamma"})
	for _, op := range res.Stats.Plan {
		if op.Kind.String() == "intersect" {
			fmt.Printf("%s %s matches=%d\n", op.Where, op.Algo, op.NOut)
			break
		}
	}
	// Output:
	// GPU merge-path matches=200
}

// ExampleGenerateCorpus synthesizes a benchmark collection shaped like
// the paper's (Zipfian list sizes) and inspects it.
func ExampleGenerateCorpus() {
	c, _ := griffin.GenerateCorpus(griffin.CorpusSpec{
		NumDocs:    100_000,
		NumTerms:   10,
		MaxListLen: 10_000,
		MinListLen: 100,
		Alpha:      1.0,
		Seed:       1,
	})
	fmt.Println("terms:", c.Index.NumTerms())
	fmt.Println("head is largest:", c.Sizes[0] > c.Sizes[9])
	// Output:
	// terms: 10
	// head is largest: true
}
