// Command griffin-indexer builds a serialized Griffin index, either from
// a directory of plain-text files (one document per file) or from a
// synthetic corpus specification.
//
// Usage:
//
//	griffin-indexer -out index.grif -dir ./corpus
//	griffin-indexer -out index.grif -synthetic -docs 1000000 -terms 500
package main

import (
	"flag"
	"fmt"
	"os"

	"griffin/internal/index"
	"griffin/internal/workload"
)

func main() {
	out := flag.String("out", "index.grif", "output index file")
	dir := flag.String("dir", "", "directory of plain-text documents (one doc per file)")
	synthetic := flag.Bool("synthetic", false, "generate a synthetic corpus instead of reading files")
	docs := flag.Int("docs", 1_000_000, "synthetic: docID universe")
	terms := flag.Int("terms", 500, "synthetic: dictionary size")
	maxList := flag.Int("maxlist", 200_000, "synthetic: longest posting list")
	minList := flag.Int("minlist", 500, "synthetic: shortest posting list")
	seed := flag.Int64("seed", 1, "synthetic: generation seed")
	flag.Parse()

	var ix *index.Index
	switch {
	case *synthetic:
		c, err := workload.GenerateCorpus(workload.CorpusSpec{
			NumDocs:    *docs,
			NumTerms:   *terms,
			MaxListLen: *maxList,
			MinListLen: *minList,
			Alpha:      0.85,
			Seed:       *seed,
		})
		exitOn(err)
		ix = c.Index
	case *dir != "":
		var paths []string
		var err error
		ix, paths, err = index.IndexDirectory(*dir)
		exitOn(err)
		fmt.Printf("indexed %d documents from %s\n", len(paths), *dir)
	default:
		fmt.Fprintln(os.Stderr, "griffin-indexer: need -dir or -synthetic")
		os.Exit(2)
	}

	f, err := os.Create(*out)
	exitOn(err)
	defer f.Close()
	n, err := ix.WriteTo(f)
	exitOn(err)
	fmt.Printf("wrote %s: %d docs, %d terms, %.1f MB\n",
		*out, ix.NumDocs, ix.NumTerms(), float64(n)/(1<<20))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "griffin-indexer:", err)
		os.Exit(1)
	}
}
