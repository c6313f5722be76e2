//go:build linux || darwin

package ef

import (
	"syscall"
	"unsafe"
)

// mapWords maps n zeroed words of anonymous, page-aligned memory,
// readable and writable: the mapping and its words, or nil, nil when it
// cannot be mapped.
func mapWords(n int) ([]byte, []uint64) {
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, nil
	}
	return mem, unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), n)
}

// protect makes a mapping read-only.
func protect(mem []byte) error { return syscall.Mprotect(mem, syscall.PROT_READ) }

// unmap releases a mapping nothing refers to. Its error is dropped: the
// only failure, a mapping that is not one, cannot be reported from a
// finalizer, and nothing would be done about it.
func unmap(mem []byte) { _ = syscall.Munmap(mem) }
