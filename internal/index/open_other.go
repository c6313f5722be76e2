//go:build !unix

package index

import "os"

// mapFile reads the whole of path: without mmap the bytes live on the
// heap, and Parse views them all the same.
func mapFile(path string) ([]byte, error) { return os.ReadFile(path) }
