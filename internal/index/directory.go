package index

import (
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
)

// IndexFS indexes every regular file of a filesystem tree as one document
// (docIDs assigned in sorted path order, so rebuilds are stable) using
// the parallel segment builder. It returns the index and the indexed
// paths, where paths[docID] names the document.
func IndexFS(fsys fs.FS) (*Index, []string, error) {
	var paths []string
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("index: no regular files to index")
	}

	docs := make([]Document, len(paths))
	for i, path := range paths {
		data, err := fs.ReadFile(fsys, path)
		if err != nil {
			return nil, nil, fmt.Errorf("index: %s: %w", path, err)
		}
		docs[i] = Document{ID: uint32(i), Tokens: Tokenize(string(data))}
	}
	ix, err := BuildParallel(docs, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, err
	}
	return ix, paths, nil
}

// IndexDirectory indexes a directory tree on the host filesystem.
func IndexDirectory(dir string) (*Index, []string, error) {
	return IndexFS(os.DirFS(dir))
}
