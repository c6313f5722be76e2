package ef

import (
	"syscall"
	"unsafe"
)

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14), which the
// syscall package does not name.
const madvPopulateWrite = 23

// populate asks the kernel to fault in w, whole pages of a region, with
// one call: a page faulted in as it is first written costs a trap of its
// own. Its error is dropped: without it (an older kernel) the pages fault
// in as they are written, as they would unasked.
func populate(w []uint64) {
	if len(w) > 0 {
		_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8), madvPopulateWrite)
	}
}
