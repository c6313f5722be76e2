// Device-memory pool: a caching allocator in front of the modeled
// cudaMalloc.
//
// cudaMalloc and cudaFree are host-synchronous and synchronize the whole
// device, so a tuned CUDA host thread never calls them on a query's
// critical path: it keeps freed blocks in size-bucketed free lists and
// hands them back out (cudaMallocAsync's memory pools, CUB's and
// PyTorch's caching allocators). Each Device owns such a pool. It is byte
// accounting only — a freed Buffer has already dropped its payload, so a
// pooled block holds no host memory — and its decisions are a pure
// function of the order of Alloc and Free calls, which keeps every
// replayed timeline reproducible.
package gpu

import (
	"fmt"
	"math/bits"
)

// pool is guarded by the owning Device's mutex.
type pool struct {
	// reserved is what the pool holds from the device: live blocks plus
	// free ones, each at its bucket size. Capacity is enforced on it.
	reserved int64
	// free counts the idle blocks per bucket size; idle is their total.
	free map[int64]int
	idle int64

	hits, misses, trims int64
}

// PoolStats is a telemetry snapshot of a device's memory pool.
type PoolStats struct {
	// Hits counts allocations served from a free block (no device time);
	// Misses the ones that paid the modeled cudaMalloc.
	Hits   int64
	Misses int64
	// Trims counts the times the pool released its free blocks: to make
	// room for an allocation that would not otherwise fit, or on request
	// (Device.Trim).
	Trims int64
	// Reserved is live plus pooled bytes, bucket rounding included.
	Reserved int64
}

// bucketSize rounds an allocation up to its free-list bucket: the next
// size with at most four significant bits, i.e. eight buckets per power of
// two and under 12.5 % of rounding, so a list cache sized at 4 GB of
// payload still fits the 5 GB device.
func bucketSize(bytes int64) int64 {
	if bytes < 16 {
		return bytes
	}
	step := int64(1) << (bits.Len64(uint64(bytes)) - 4)
	return (bytes + step - 1) &^ (step - 1)
}

// take reserves a block for bytes of payload and reports whether it had to
// come from the device (a miss) or was reused from the pool. When a new
// block does not fit, the pool first releases every free block and
// retries; ErrOutOfMemory means live blocks alone leave no room.
func (d *Device) take(bytes int64) (block int64, miss bool, err error) {
	block = bucketSize(bytes)
	d.mu.Lock()
	defer d.mu.Unlock()
	p := &d.pool
	if p.free[block] > 0 {
		p.free[block]--
		p.idle -= block
		p.hits++
		d.allocated += bytes
		return block, false, nil
	}
	if p.reserved+block > d.model.MemoryBytes {
		p.trim()
	}
	if p.reserved+block > d.model.MemoryBytes {
		return 0, false, fmt.Errorf("%w: %d reserved + %d > %d", ErrOutOfMemory, p.reserved, block, d.model.MemoryBytes)
	}
	p.reserved += block
	p.misses++
	d.allocated += bytes
	return block, true, nil
}

// trim releases every free block back to the device.
func (p *pool) trim() {
	if p.idle == 0 {
		return
	}
	p.reserved -= p.idle
	p.idle = 0
	clear(p.free)
	p.trims++
}

// Trim releases the pool's free blocks back to the device
// (cudaMemPoolTrimTo): what an engine does when it retires, because the
// block sizes its index generation left behind fit no successor. Live
// buffers are unaffected; the next allocations miss again.
func (d *Device) Trim() {
	d.mu.Lock()
	d.pool.trim()
	d.mu.Unlock()
}

// give returns a block to the pool's free list.
func (d *Device) give(bytes, block int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocated -= bytes
	p := &d.pool
	if p.free == nil {
		p.free = make(map[int64]int)
	}
	p.free[block]++
	p.idle += block
}

// Reserved returns the device memory the pool holds in bytes: live blocks
// plus the free blocks it keeps for reuse, bucket rounding included. It
// never exceeds the device's capacity.
func (d *Device) Reserved() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pool.reserved
}

// PoolStats returns a snapshot of the pool's counters.
func (d *Device) PoolStats() PoolStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := &d.pool
	return PoolStats{Hits: p.hits, Misses: p.misses, Trims: p.trims, Reserved: p.reserved}
}
