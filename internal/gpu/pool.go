// Device-memory arena: the device's memory is reserved once, at start,
// and allocations carve blocks out of it.
//
// cudaMalloc and cudaFree are host-synchronous and synchronize the whole
// device, so a tuned CUDA server never calls them on a query's critical
// path: it reserves the device's memory when it starts and sub-allocates
// from that reservation (TensorFlow's BFC allocator, a cudaMallocAsync
// pool that is pre-grown and never trimmed). Each Device models such an
// arena. The reservation is made before the first query, and a block
// costs no device time. The arena is byte accounting only, so no query's modeled
// time depends on what earlier queries allocated.
package gpu

import (
	"fmt"
	"math/bits"
)

// bucketSize rounds an allocation up to its arena size class: the next
// size with at most four significant bits, i.e. eight classes per power
// of two and under 12.5 % of rounding, so a list cache sized at 4 GB of
// payload still fits the 5 GB device.
func bucketSize(bytes int64) int64 {
	if bytes < 16 {
		return bytes
	}
	step := int64(1) << (bits.Len64(uint64(bytes)) - 4)
	return (bytes + step - 1) &^ (step - 1)
}

// take carves a block for bytes of payload out of the arena.
// ErrOutOfMemory means the live blocks, each at its bucket size, leave no
// room for it.
func (d *Device) take(bytes int64) (block int64, err error) {
	block = bucketSize(bytes)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.reserved+block > d.model.MemoryBytes {
		return 0, fmt.Errorf("%w: %d reserved + %d > %d", ErrOutOfMemory, d.reserved, block, d.model.MemoryBytes)
	}
	d.reserved += block
	d.allocated += bytes
	return block, nil
}

// give returns a block to the arena.
func (d *Device) give(bytes, block int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocated -= bytes
	d.reserved -= block
}

// Reserved returns the device memory the live blocks occupy in bytes,
// bucket rounding included. It never exceeds the device's capacity.
func (d *Device) Reserved() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reserved
}
