// Package hwmodel defines the calibrated analytical cost models that turn
// the functional simulation's work counters into simulated durations.
//
// The paper measures a 4-core Intel Xeon E5-2609v2 at 2.5 GHz against an
// NVIDIA Tesla K20 (13 SMX units, 2496 CUDA cores, 5 GB GDDR5 at 208 GB/s)
// connected over PCIe 2.0 x16 at 8 GB/s (§4.1). The reproduction cannot run
// CUDA, so each hardware effect the paper reasons about — kernel-launch and
// allocation overheads, host/device transfer, memory bandwidth, SIMT warp
// divergence, occupancy ramp-up on small inputs, CPU branch handling and
// per-element decode costs — is modeled as an explicit constant here, with
// its derivation recorded next to it. The experiments in
// internal/experiments validate the resulting *shapes* (who wins, where the
// crossover falls), which is the reproduction target; absolute numbers are
// not.
package hwmodel

import "time"

// LaunchStats aggregates the hardware counters one simulated kernel launch
// produced. The gpu package fills this in from per-thread instrumentation.
type LaunchStats struct {
	// Blocks and ThreadsPerBlock give the launch geometry.
	Blocks          int
	ThreadsPerBlock int
	// Ops counts simple arithmetic/logic operations executed across all
	// threads (each warp-serialized divergent op is counted by the kernel
	// itself via DivergentOps).
	Ops int64
	// GlobalReadBytes and GlobalWriteBytes count device-memory traffic.
	GlobalReadBytes  int64
	GlobalWriteBytes int64
	// SharedBytes counts shared-memory traffic (cheap, but not free).
	SharedBytes int64
	// DivergentOps counts operations executed under warp divergence; they
	// are charged at WarpSize-fold serialization cost.
	DivergentOps int64
	// DependentOps counts operations in single-lane *dependent* chains
	// (e.g. walking a linked list, a serial prefix sum): one lane active
	// per warp AND no instruction-level parallelism to hide ALU latency.
	// Charged at WarpSize x DependencyStall the coherent rate — the cost
	// that makes direct ports of sequential CPU algorithms (PForDelta's
	// exception chain, §3.1.1) perform poorly on GPUs.
	DependentOps int64
	// UncoalescedBytes is the subset of global traffic issued at
	// one-word-per-transaction granularity (e.g. scattered binary-search
	// probes); it is charged at a fraction of peak bandwidth.
	UncoalescedBytes int64
	// Phases is the number of device-wide synchronization phases.
	Phases int
}

// Threads returns the total thread count of the launch.
func (s *LaunchStats) Threads() int { return s.Blocks * s.ThreadsPerBlock }

// Add accumulates other into s (geometry fields are kept from s).
func (s *LaunchStats) Add(other *LaunchStats) {
	s.Ops += other.Ops
	s.GlobalReadBytes += other.GlobalReadBytes
	s.GlobalWriteBytes += other.GlobalWriteBytes
	s.SharedBytes += other.SharedBytes
	s.DivergentOps += other.DivergentOps
	s.DependentOps += other.DependentOps
	s.UncoalescedBytes += other.UncoalescedBytes
}

// GPUModel is the Tesla-K20-calibrated device model.
type GPUModel struct {
	// LaunchOverhead is the fixed cost of one kernel launch (driver +
	// dispatch). CUDA launch latency on Kepler-era parts is 5-10 us.
	LaunchOverhead time.Duration
	// PCIeLatency is the fixed DMA setup latency per transfer.
	PCIeLatency time.Duration
	// PCIeBytesPerSec is the host<->device bandwidth (paper: 8 GB/s).
	PCIeBytesPerSec float64
	// GlobalBytesPerSec is device-memory bandwidth (paper: 208 GB/s).
	GlobalBytesPerSec float64
	// UncoalescedFraction is the achieved fraction of peak bandwidth for
	// scattered single-word transactions (Kepler: 32-byte transactions for
	// 4 useful bytes => ~1/8).
	UncoalescedFraction float64
	// SharedBytesPerSec is aggregate shared-memory bandwidth (~1.3 TB/s on
	// K20; effectively free relative to global memory).
	SharedBytesPerSec float64
	// OpsPerSec is aggregate simple-op throughput when fully occupied.
	// K20: 2496 cores x 706 MHz ~ 1.76e12; integer-heavy kernels with
	// dependent ops achieve roughly half.
	OpsPerSec float64
	// WarpSize is the SIMT width (32); divergent ops serialize up to this.
	WarpSize int
	// DependencyStall is the extra latency multiplier for single-lane
	// dependent chains: with ILP of 1, each op waits out the full ALU
	// pipeline (~8-10 cycles on Kepler) instead of overlapping.
	DependencyStall float64
	// SaturationThreads is the resident-thread count needed to saturate
	// the device (13 SMX x 2048 threads = 26624). Smaller launches run at
	// proportionally lower throughput — the occupancy ramp that makes tiny
	// lists a bad fit for the GPU (§2.3, §4.3.1).
	SaturationThreads int
	// MinUtilization floors the occupancy ramp: even a one-thread kernel
	// proceeds at some nonzero rate.
	MinUtilization float64
	// PhaseOverhead is the per-device-wide-sync cost within a launch.
	PhaseOverhead time.Duration
	// MemoryBytes is device memory capacity (5 GB on K20); the gpu package
	// enforces it on allocation.
	MemoryBytes int64
	// PeerLatency is the fixed DMA setup latency of one device-to-device
	// (peer) transfer inside a multi-GPU node. P2P DMA over a shared PCIe
	// switch programs a single engine and skips the host bounce buffer, so
	// setup is cheaper than the host path's two-sided pinning (~6 us vs
	// 10 us measured on Kepler-era GPUDirect).
	PeerLatency time.Duration
	// PeerBytesPerSec is the inter-device (peer) bandwidth. On a
	// Kepler-era node both GPUs hang off one PCIe 2.0 switch, but P2P DMA
	// avoids the store-and-forward hop through host memory, sustaining
	// ~1.5x the host-path rate (~12 GB/s vs 8 GB/s). The constant is
	// distinct from PCIeBytesPerSec so NVLink-class interconnects are a
	// calibration change, not a code change.
	PeerBytesPerSec float64
	// BatchMemberOverhead is the marginal fixed cost each additional
	// member of a coalesced cross-query batch pays instead of the full
	// per-op fixed costs (launch, DMA setup). When compatible
	// ops from concurrently queued queries are packed into one grid /
	// one DMA program, the followers skip the driver round trip and pay
	// only the indexing prologue that routes their slice of the combined
	// launch — sub-microsecond on Kepler-era parts.
	BatchMemberOverhead time.Duration
}

// DefaultGPU returns the K20-calibrated model the experiments use.
func DefaultGPU() GPUModel {
	return GPUModel{
		LaunchOverhead:      8 * time.Microsecond,
		PCIeLatency:         10 * time.Microsecond,
		PCIeBytesPerSec:     8e9,
		GlobalBytesPerSec:   208e9,
		UncoalescedFraction: 0.125,
		SharedBytesPerSec:   1.3e12,
		OpsPerSec:           0.9e12,
		WarpSize:            32,
		DependencyStall:     8,
		SaturationThreads:   26624,
		MinUtilization:      0.002,
		PhaseOverhead:       2 * time.Microsecond,
		MemoryBytes:         5 << 30,
		PeerLatency:         6 * time.Microsecond,
		PeerBytesPerSec:     12e9,
		BatchMemberOverhead: 500 * time.Nanosecond,
	}
}

// utilization returns the occupancy-derived fraction of peak throughput a
// launch of n threads achieves.
func (m *GPUModel) utilization(n int) float64 {
	u := float64(n) / float64(m.SaturationThreads)
	if u > 1 {
		u = 1
	}
	if u < m.MinUtilization {
		u = m.MinUtilization
	}
	return u
}

// KernelTime converts a launch's counters into simulated execution time.
// Compute and memory streams overlap (hardware multithreading hides
// latency, §2.3), so the kernel takes the maximum of the two, plus launch
// and phase overheads.
func (m *GPUModel) KernelTime(s *LaunchStats) time.Duration {
	u := m.utilization(s.Threads())
	ops := float64(s.Ops) +
		float64(s.DivergentOps)*float64(m.WarpSize-1)/2 +
		float64(s.DependentOps)*float64(m.WarpSize)*m.DependencyStall
	compute := ops / (m.OpsPerSec * u)

	coalesced := float64(s.GlobalReadBytes+s.GlobalWriteBytes) - float64(s.UncoalescedBytes)
	if coalesced < 0 {
		coalesced = 0
	}
	mem := coalesced/(m.GlobalBytesPerSec*u) +
		float64(s.UncoalescedBytes)/(m.GlobalBytesPerSec*m.UncoalescedFraction*u) +
		float64(s.SharedBytes)/(m.SharedBytesPerSec*u)

	t := compute
	if mem > t {
		t = mem
	}
	return m.LaunchOverhead +
		time.Duration(s.Phases)*m.PhaseOverhead +
		time.Duration(t*float64(time.Second))
}

// TransferTime returns the host<->device copy time for n bytes.
func (m *GPUModel) TransferTime(bytes int64) time.Duration {
	return m.PCIeLatency + time.Duration(float64(bytes)/m.PCIeBytesPerSec*float64(time.Second))
}

// PeerTransferTime returns the device<->device copy time for n bytes over
// the node's peer interconnect. It has the same shape as TransferTime —
// fixed setup latency plus bandwidth-proportional payload — but is priced
// by the peer constants, so a scheduler can weigh "peer-copy a resident
// list from a sibling device" against "re-upload it from the host" as two
// differently priced paths. Models with no peer calibration (both peer
// constants zero) fall back to the host path, so a single-device model
// never silently prices peer copies as free.
func (m *GPUModel) PeerTransferTime(bytes int64) time.Duration {
	if m.PeerBytesPerSec <= 0 {
		return m.TransferTime(bytes)
	}
	return m.PeerLatency + time.Duration(float64(bytes)/m.PeerBytesPerSec*float64(time.Second))
}

// CPUModel is the Xeon-E5-2609v2-calibrated host model. The CPU algorithms
// execute for real; their simulated cost is derived from work counts they
// report (elements merged, blocks decoded, binary-search probes).
type CPUModel struct {
	// MergePerElement is the cost per element scanned by the sequential
	// two-pointer merge: ~4-5 cycles of compare/advance with good spatial
	// locality at 2.5 GHz.
	MergePerElement time.Duration
	// BinarySearchPerProbe is the cost of one binary-search step into a
	// large, cold array: comparison plus a likely branch mispredict and a
	// main-memory cache miss.
	BinarySearchPerProbe time.Duration
	// CachedProbe is a binary-search step into a cache-resident structure:
	// the skip-pointer array of even a 2M-element list is only ~125 KB
	// (one u32 first-docID per 128-element block), so repeated monotone
	// probing keeps it in L2 — the locality that makes the CPU the right
	// processor above the crossover (§2.2).
	CachedProbe time.Duration
	// SelectProbe is one Elias-Fano select-based random access inside a
	// compressed block (probe without decoding the block): a popcount walk
	// plus a table lookup, a few dependent ALU ops.
	SelectProbe time.Duration
	// PFDDecodePerElement is PForDelta block decode per element: unpack,
	// exception patch, prefix sum. Anchored to the paper's Figure 12 CPU
	// curve (~115 ms to decompress ~10M-element groups => ~11-12 ns/elt on
	// their older Xeon; we keep that figure so ratios match).
	PFDDecodePerElement time.Duration
	// EFDecodePerElement is serial Elias-Fano decode per element (unary
	// scan + concatenate; slightly cheaper than PFD's patch pass, per
	// Vigna 2013).
	EFDecodePerElement time.Duration
	// ScorePerDocument is BM25 per candidate document.
	ScorePerDocument time.Duration
	// HeapPerCandidate is the bounded-heap cost per candidate during
	// CPU top-k partial sort.
	HeapPerCandidate time.Duration
	// MemBytesPerSec is host streaming bandwidth (DDR3-1600, ~12.8 GB/s
	// per channel; the E5-2609v2 sustains ~20 GB/s).
	MemBytesPerSec float64
}

// DefaultCPU returns the Xeon-calibrated model the experiments use.
func DefaultCPU() CPUModel {
	return CPUModel{
		MergePerElement:      2 * time.Nanosecond,
		BinarySearchPerProbe: 6 * time.Nanosecond,
		CachedProbe:          2 * time.Nanosecond,
		SelectProbe:          3 * time.Nanosecond,
		PFDDecodePerElement:  11 * time.Nanosecond,
		EFDecodePerElement:   9 * time.Nanosecond,
		ScorePerDocument:     8 * time.Nanosecond,
		HeapPerCandidate:     5 * time.Nanosecond,
		MemBytesPerSec:       20e9,
	}
}

// CPUWork counts the work a CPU-side operation performed.
type CPUWork struct {
	MergedElements  int64 // elements scanned by two-pointer merges
	BinaryProbes    int64 // binary-search comparisons into cold arrays
	CachedProbes    int64 // binary-search comparisons into cache-resident skip arrays
	SelectProbes    int64 // Elias-Fano in-compressed-block random accesses
	PFDDecodedElems int64 // elements decoded from PForDelta blocks
	EFDecodedElems  int64 // elements decoded from Elias-Fano blocks
	ScoredDocs      int64 // BM25 evaluations
	HeapCandidates  int64 // candidates pushed through the top-k heap
	BytesTouched    int64 // additional streaming traffic
}

// Add accumulates other into w.
func (w *CPUWork) Add(other CPUWork) {
	w.MergedElements += other.MergedElements
	w.BinaryProbes += other.BinaryProbes
	w.CachedProbes += other.CachedProbes
	w.SelectProbes += other.SelectProbes
	w.PFDDecodedElems += other.PFDDecodedElems
	w.EFDecodedElems += other.EFDecodedElems
	w.ScoredDocs += other.ScoredDocs
	w.HeapCandidates += other.HeapCandidates
	w.BytesTouched += other.BytesTouched
}

// Time converts the work counts into simulated duration.
func (m *CPUModel) Time(w CPUWork) time.Duration {
	d := time.Duration(w.MergedElements)*m.MergePerElement +
		time.Duration(w.BinaryProbes)*m.BinarySearchPerProbe +
		time.Duration(w.CachedProbes)*m.CachedProbe +
		time.Duration(w.SelectProbes)*m.SelectProbe +
		time.Duration(w.PFDDecodedElems)*m.PFDDecodePerElement +
		time.Duration(w.EFDecodedElems)*m.EFDecodePerElement +
		time.Duration(w.ScoredDocs)*m.ScorePerDocument +
		time.Duration(w.HeapCandidates)*m.HeapPerCandidate
	if w.BytesTouched > 0 {
		d += time.Duration(float64(w.BytesTouched) / m.MemBytesPerSec * float64(time.Second))
	}
	return d
}
