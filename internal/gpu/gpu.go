// Package gpu is a functional simulator of a SIMT co-processor in the
// style of the NVIDIA Tesla K20 the paper evaluates on (§4.1).
//
// The simulator has two halves:
//
//   - A *functional* half that really executes kernels, in parallel, on the
//     host: a kernel is launched over a grid of thread blocks, each block
//     owns shared memory, and execution proceeds in phases separated by
//     barriers (the structured analogue of __syncthreads). Blocks run
//     concurrently on a goroutine worker pool, so partitioning or barrier
//     bugs in the kernels fail for real.
//
//   - A *timing* half that never looks at wall-clock time: kernels report
//     hardware counters (ops, global/shared traffic, divergent ops,
//     uncoalesced bytes) through their thread contexts, and the
//     hwmodel.GPUModel converts those counters plus the launch geometry
//     into a simulated duration, which accumulates on the Stream the
//     launch was issued to.
//
// Device memory is explicit: data reaches the device through H2D, leaves
// through D2H, both charged at modeled PCIe cost, and the 5 GB capacity of
// the K20 is enforced — exactly the overheads the Griffin scheduler weighs
// when it decides where a query operation should run. Allocations carve
// blocks out of the memory the device reserved when it was created
// (pool.go), so no operation pays a modeled cudaMalloc.
package gpu

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"griffin/internal/hwmodel"
)

// ErrOutOfMemory is returned when an allocation would exceed device memory.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// Device is a simulated GPU.
type Device struct {
	model hwmodel.GPUModel

	mu        sync.Mutex
	allocated int64 // live bytes, as requested by callers
	reserved  int64 // live bytes at their bucket sizes (pool.go)

	workers int

	// launches counts kernel launches since device creation (telemetry).
	launches atomic.Int64
}

// New returns a device governed by the given timing model. workers sets the
// host parallelism used to execute blocks; 0 means GOMAXPROCS.
func New(model hwmodel.GPUModel, workers int) *Device {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Device{model: model, workers: workers}
}

// Model returns the device's timing model.
func (d *Device) Model() *hwmodel.GPUModel { return &d.model }

// Clone returns a fresh device with the same timing model and host
// parallelism but its own memory accounting and telemetry — the sibling
// accelerators of a multi-GPU node (NodeRuntime) are clones of one
// template device.
func (d *Device) Clone() *Device { return New(d.model, d.workers) }

// Allocated returns the live device memory in bytes: what callers asked
// for and have not freed, before bucket rounding (see Reserved).
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}

// Launches returns the number of kernel launches issued so far.
func (d *Device) Launches() int64 { return d.launches.Load() }

// Stream is an in-order queue of device operations; its Elapsed clock
// accumulates the simulated cost of every operation issued to it. A query
// drives one stream per hardware engine (StreamSet), tied together by
// events, so its device time is the critical path through the three.
type Stream struct {
	dev     *Device
	elapsed time.Duration
	// fixed accumulates the *fixed* component of every charged operation —
	// launch overhead, DMA setup latency — separately from elapsed. It is
	// what a cross-query batching stage can amortize: a work item
	// coalesced into an already-open batch pays these costs once per batch
	// instead of once per op (see DeviceRuntime.EnableBatching).
	fixed time.Duration

	// lane names the stream in profile reports; log is where its events go
	// (nil = profiling off). The streams of a StreamSet share one log.
	lane string
	log  *profileLog
}

// NewStream returns a fresh stream with a zeroed simulated clock.
func (d *Device) NewStream() *Stream { return &Stream{dev: d, lane: "stream"} }

// Device returns the device the stream issues to; kernels size their
// launch geometry from its model.
func (s *Stream) Device() *Device { return s.dev }

// Elapsed returns the simulated time consumed by operations on the stream.
func (s *Stream) Elapsed() time.Duration { return s.elapsed }

// AddTime advances the stream clock by d; used by callers to account
// host-side work that interleaves with device operations.
func (s *Stream) AddTime(d time.Duration) { s.elapsed += d }

// Buffer is a device-memory allocation. Bytes is the simulated footprint
// used for memory accounting and transfer cost. Data holds the payload
// functional execution reads, which need not be laid out as Bytes says:
// it may be a view that yields the modeled contents on demand (a decoded
// list's payload is its compressed list) or hold fewer elements than were
// allocated (an intersection's output holds its matches, not the upper
// bound it was allocated at).
type Buffer struct {
	dev   *Device
	Bytes int64
	Data  any
	block int64 // the arena block backing the buffer (Bytes rounded up)
	freed bool
}

// Alloc takes bytes of device memory from the device's arena. It costs
// no device time: the memory was reserved when the device was created.
// The payload starts nil; kernels or copies fill it.
func (s *Stream) Alloc(bytes int64) (*Buffer, error) {
	block, err := s.dev.take(bytes)
	if err != nil {
		return nil, err
	}
	return &Buffer{dev: s.dev, Bytes: bytes, block: block}, nil
}

// H2D copies host data to a fresh device buffer, charging the PCIe
// transfer for bytes.
func (s *Stream) H2D(data any, bytes int64) (*Buffer, error) {
	b, err := s.Alloc(bytes)
	if err != nil {
		return nil, err
	}
	b.Data = data
	took := s.dev.model.TransferTime(bytes)
	s.record("h2d", "", bytes, s.elapsed, took)
	s.elapsed += took
	s.fixed += s.dev.model.PCIeLatency
	return b, nil
}

// D2H copies a device buffer's payload back to the host, charging PCIe
// transfer for bytes (callers pass the actually-transferred size, which may
// be smaller than the allocation, e.g. a compacted result).
func (s *Stream) D2H(b *Buffer, bytes int64) any {
	took := s.dev.model.TransferTime(bytes)
	s.record("d2h", "", bytes, s.elapsed, took)
	s.elapsed += took
	s.fixed += s.dev.model.PCIeLatency
	return b.Data
}

// PeerIn copies data from a sibling device of the same node into a fresh
// buffer on this stream's device, charging the peer-interconnect
// transfer (hwmodel.GPUModel.PeerTransferTime) instead of the host PCIe
// path — the priced alternative to re-uploading a list that
// is already resident on another device. The source device's engines are
// not occupied: the model charges the transfer to the destination query's
// timeline only, which keeps per-device timelines independent (see
// docs/simulator.md).
func (s *Stream) PeerIn(data any, bytes int64) (*Buffer, error) {
	b, err := s.Alloc(bytes)
	if err != nil {
		return nil, err
	}
	b.Data = data
	took := s.dev.model.PeerTransferTime(bytes)
	s.record("p2p", "", bytes, s.elapsed, took)
	s.elapsed += took
	s.fixed += s.dev.model.PeerLatency
	return b, nil
}

// Free returns the buffer's block to the device's arena and drops the
// payload. Freeing twice is a no-op.
func (b *Buffer) Free() {
	if b == nil || b.freed {
		return
	}
	b.freed = true
	b.dev.give(b.Bytes, b.block)
	b.Data = nil
}

// Kernel describes one launch: a grid of Grid blocks of Block threads,
// executing Phases in order with a barrier between consecutive phases.
// A barrier is device-wide — every block finishes phase i before any
// block starts phase i+1 — unless BlockLocal declares it a __syncthreads.
// MakeShared, if non-nil, allocates shared-memory state; SharedBytes is
// its modeled size.
type Kernel struct {
	Name        string
	Grid        int
	Block       int
	SharedBytes int
	// MakeShared allocates one shared-memory object. A kernel with a
	// device-wide barrier gets one per block (the argument is the block),
	// made before phase 0 and kept across its barriers. A kernel whose
	// barriers are all block-local gets one per host worker (the argument
	// is the worker), handed to every block that worker runs: a block
	// finds in it whatever the previous block left, as shared memory is
	// uninitialised on hardware, and must write what it reads.
	MakeShared func(i int) any
	// MakeScratch, if non-nil, makes one host-side object per host worker,
	// which every block the worker runs finds in Ctx.Scratch: room for the
	// host's bookkeeping of a phase — buffers it would otherwise allocate
	// per block — that is no part of the modeled device. A phase must not
	// expect what it left there to reach another block.
	MakeScratch func() any
	Phases      []Phase
	// Lane0, when Lane0[i] is set, declares that Phases[i] is invoked once
	// per block, with Thread == 0, instead of once per thread. The phase
	// either has work for one lane only (a tile scan, a per-block boundary
	// search) or loops over its block's lanes itself and reports each
	// lane's counters as that lane would have. Counters and modeled time
	// are those of the full block either way; only the host saves the
	// calls. May be shorter than Phases (missing entries are false).
	Lane0 []bool
	// BlockLocal, when BlockLocal[i] is set, declares the barrier between
	// Phases[i] and Phases[i+1] block-local (__syncthreads, not a grid
	// sync): from there to the next device-wide barrier a block reads only
	// what its own threads wrote since the last one. Launch then runs each
	// block through the phases such barriers join back to back on one host
	// worker, instead of sweeping the grid once per phase. Counters and
	// modeled time do not depend on it. May be shorter than Phases
	// (missing entries are false: device-wide).
	BlockLocal []bool
}

// Phase is one barrier-delimited stage of a kernel, invoked once per
// thread. Threads within a phase must not communicate; cross-thread
// communication happens across the barrier between phases — the structured
// discipline that makes the functional execution race-free by construction
// when kernels follow it (and detectably racy under -race when they do
// not, since blocks and phase-thread chunks really run concurrently).
type Phase func(c *Ctx)

// Ctx is the per-thread execution context, carrying thread coordinates and
// the counter sinks.
type Ctx struct {
	// Block and Thread are the block index and intra-block thread index.
	Block, Thread int
	// Grid and BlockDim mirror the launch geometry.
	Grid, BlockDim int
	// Shared is the block's shared-memory state (MakeShared's result).
	Shared any
	// Scratch is the host worker's MakeScratch object.
	Scratch any

	// stats accumulates the counters of every thread the owning host
	// worker runs in one phase, without atomics; Launch merges the workers'
	// sets into the launch totals at the phase barrier.
	stats hwmodel.LaunchStats
	// Workers' contexts sit side by side in one slice; the padding keeps
	// their counters on separate cache lines.
	_ [64]byte
}

// GlobalID returns the flattened global thread id.
func (c *Ctx) GlobalID() int { return c.Block*c.BlockDim + c.Thread }

// Op records n simple arithmetic/logic operations.
func (c *Ctx) Op(n int) { c.stats.Ops += int64(n) }

// DivergentOp records n operations executed under warp divergence (charged
// with warp serialization by the model).
func (c *Ctx) DivergentOp(n int) { c.stats.DivergentOps += int64(n) }

// DependentOp records n operations in a single-lane dependent chain (a
// pointer chase or serial scan): charged with full warp serialization plus
// a latency-stall multiplier, the cost that punishes direct ports of
// sequential CPU algorithms.
func (c *Ctx) DependentOp(n int) { c.stats.DependentOps += int64(n) }

// GlobalRead records n bytes of coalesced global-memory reads.
func (c *Ctx) GlobalRead(n int) { c.stats.GlobalReadBytes += int64(n) }

// GlobalWrite records n bytes of coalesced global-memory writes.
func (c *Ctx) GlobalWrite(n int) { c.stats.GlobalWriteBytes += int64(n) }

// UncoalescedRead records n bytes of scattered global reads (counted in
// both the global and uncoalesced totals).
func (c *Ctx) UncoalescedRead(n int) {
	c.stats.GlobalReadBytes += int64(n)
	c.stats.UncoalescedBytes += int64(n)
}

// UncoalescedWrite records n bytes of scattered global writes (counted in
// both the global and uncoalesced totals).
func (c *Ctx) UncoalescedWrite(n int) {
	c.stats.GlobalWriteBytes += int64(n)
	c.stats.UncoalescedBytes += int64(n)
}

// SharedAccess records n bytes of shared-memory traffic.
func (c *Ctx) SharedAccess(n int) { c.stats.SharedBytes += int64(n) }

// Launch executes the kernel functionally and charges its modeled time to
// the stream (Charge). It returns the counters for inspection by tests and
// the experiments harness.
func (s *Stream) Launch(k *Kernel) *hwmodel.LaunchStats {
	d := s.dev
	total := &hwmodel.LaunchStats{
		Blocks:          k.Grid,
		ThreadsPerBlock: k.Block,
		Phases:          len(k.Phases),
	}

	// One context per host worker, reused across blocks and phases.
	workers := max(1, min(d.workers, k.Grid))
	ctxs := make([]Ctx, workers)
	for w := range ctxs {
		ctxs[w].Grid, ctxs[w].BlockDim = k.Grid, k.Block
		if k.MakeScratch != nil {
			ctxs[w].Scratch = k.MakeScratch()
		}
	}
	shared := k.sharedState(ctxs)

	// A run is a stretch of phases joined by block-local barriers: every
	// block goes through all of it on one worker. Runs are separated by
	// device-wide barriers: the parallel-for over all blocks completes
	// before the next run starts.
	for lo, hi := 0, 0; lo < len(k.Phases); lo = hi {
		hi = lo + 1
		for hi < len(k.Phases) && flagAt(k.BlockLocal, hi-1) {
			hi++
		}
		if workers == 1 {
			for b := 0; b < k.Grid; b++ {
				ctxs[0].runBlock(k, shared, b, lo, hi)
			}
		} else {
			parallelFor(k.Grid, workers, func(w, b int) { ctxs[w].runBlock(k, shared, b, lo, hi) })
		}
		for w := range ctxs {
			total.Add(&ctxs[w].stats)
			ctxs[w].stats = hwmodel.LaunchStats{}
		}
	}

	s.Charge(k.Name, total)
	return total
}

// Charge bills one launch of the named kernel with counters st to the
// stream: a launch on the device's count, the modeled KernelTime on the
// clock and in the profile, the launch overhead as fixed cost. Launch
// charges what it executed this way; a counted kernel, whose counters are
// a closed form of its input, charges them without executing any phase,
// and nothing downstream can tell the two apart.
func (s *Stream) Charge(name string, st *hwmodel.LaunchStats) {
	d := s.dev
	d.launches.Add(1)
	took := d.model.KernelTime(st)
	s.record("launch", name, 0, s.elapsed, took)
	s.elapsed += took
	s.fixed += d.model.LaunchOverhead
}

// flagAt reads an optional per-phase flag slice (Kernel.Lane0, BlockLocal).
func flagAt(flags []bool, i int) bool { return i < len(flags) && flags[i] }

// sharedState allocates the launch's shared-memory objects. When every
// barrier is block-local, a block's shared memory is dead once the block
// has run, so each worker's context gets one object for all its blocks
// and nil is returned; otherwise one object per block is returned, which
// runBlock attaches. nil for kernels that use none.
func (k *Kernel) sharedState(ctxs []Ctx) []any {
	if k.MakeShared == nil {
		return nil
	}
	perWorker := true
	for i := 0; i < len(k.Phases)-1; i++ {
		perWorker = perWorker && flagAt(k.BlockLocal, i)
	}
	if perWorker {
		for w := range ctxs {
			ctxs[w].Shared = k.MakeShared(w)
		}
		return nil
	}
	shared := make([]any, k.Grid)
	for b := range shared {
		shared[b] = k.MakeShared(b)
	}
	return shared
}

// runBlock runs block b through Phases[lo:hi] on c: every thread of the
// block through one phase (thread 0 alone for a Lane0 phase), then the
// next.
func (c *Ctx) runBlock(k *Kernel, shared []any, b, lo, hi int) {
	c.Block = b
	if shared != nil {
		c.Shared = shared[b]
	}
	for i := lo; i < hi; i++ {
		phase, threads := k.Phases[i], k.Block
		if flagAt(k.Lane0, i) {
			threads = 1
		}
		for t := 0; t < threads; t++ {
			c.Thread = t
			phase(c)
		}
	}
}

// parallelFor runs f(worker, 0..n-1) across at most workers goroutines,
// chunked to keep scheduling overhead low for large grids. worker is the
// index of the goroutine making the call, so f can keep per-worker state
// without synchronization.
func parallelFor(n, workers int, f func(worker, i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					f(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// GridFor returns the number of blocks needed to cover n threads at the
// given block size.
func GridFor(n, block int) int {
	if n <= 0 {
		return 1
	}
	return (n + block - 1) / block
}
