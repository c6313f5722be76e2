//go:build !linux && !darwin

package ef

// Without the mmap and mprotect of the syscall package nothing is mapped:
// an Arena's pages keep their rows and words on the heap.

func mapWords(int) ([]byte, []uint64) { return nil, nil }

func protect([]byte) error { return nil }

func unmap([]byte) {}
