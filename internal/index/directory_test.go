package index

import (
	"reflect"
	"testing"
	"testing/fstest"
)

func TestIndexFS(t *testing.T) {
	fsys := fstest.MapFS{
		"b/doc2.txt":     {Data: []byte("quick brown dog")},
		"a/doc1.txt":     {Data: []byte("quick brown fox jumps")},
		"c/nested/d.txt": {Data: []byte("lazy fox sleeps")},
	}
	ix, paths, err := IndexFS(fsys, CodecEF)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted path order fixes docIDs.
	wantPaths := []string{"a/doc1.txt", "b/doc2.txt", "c/nested/d.txt"}
	if !reflect.DeepEqual(paths, wantPaths) {
		t.Fatalf("paths = %v", paths)
	}
	p, ok := ix.Lookup("fox")
	if !ok {
		t.Fatal("fox not indexed")
	}
	if got := p.EF.Decompress(); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Fatalf("fox docIDs = %v", got)
	}
	if ix.NumDocs != 3 {
		t.Fatalf("NumDocs = %d", ix.NumDocs)
	}
}

func TestIndexFSStableAcrossRebuilds(t *testing.T) {
	fsys := fstest.MapFS{
		"x.txt": {Data: []byte("alpha beta")},
		"y.txt": {Data: []byte("beta gamma")},
	}
	ix1, _, err := IndexFS(fsys, CodecEF)
	if err != nil {
		t.Fatal(err)
	}
	ix2, _, err := IndexFS(fsys, CodecEF)
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, ix1, ix2)
}

func TestIndexFSEmpty(t *testing.T) {
	if _, _, err := IndexFS(fstest.MapFS{}, CodecEF); err == nil {
		t.Fatal("empty tree should error")
	}
}
