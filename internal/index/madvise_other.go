//go:build !linux

package index

// dropResident does nothing where the syscall package has no madvise.
func dropResident([]byte) {}
