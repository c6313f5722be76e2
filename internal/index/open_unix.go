//go:build unix

package index

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps the whole of path read-only. The descriptor is closed
// before returning; the mapping outlives it.
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, nil // mmap rejects a zero length; Parse rejects the empty input
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("%s: %d bytes do not fit the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	return data, nil
}
