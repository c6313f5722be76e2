package index

import "syscall"

// dropResident tells the kernel that the pages of b, a file mapping
// starting on a page boundary, need not stay resident. Its error is
// dropped: the pages then stay, which is what not asking would do.
func dropResident(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }
