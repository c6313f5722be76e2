package hwmodel

import (
	"testing"
	"time"
)

func TestLaunchStatsThreads(t *testing.T) {
	s := LaunchStats{Blocks: 4, ThreadsPerBlock: 256}
	if got := s.Threads(); got != 1024 {
		t.Fatalf("Threads() = %d, want 1024", got)
	}
}

func TestLaunchStatsAdd(t *testing.T) {
	a := LaunchStats{Blocks: 2, ThreadsPerBlock: 64, Ops: 10, GlobalReadBytes: 100,
		GlobalWriteBytes: 50, SharedBytes: 30, DivergentOps: 5, UncoalescedBytes: 8}
	b := LaunchStats{Ops: 1, GlobalReadBytes: 2, GlobalWriteBytes: 3,
		SharedBytes: 4, DivergentOps: 6, UncoalescedBytes: 7}
	a.Add(&b)
	if a.Ops != 11 || a.GlobalReadBytes != 102 || a.GlobalWriteBytes != 53 ||
		a.SharedBytes != 34 || a.DivergentOps != 11 || a.UncoalescedBytes != 15 {
		t.Fatalf("Add merged wrong: %+v", a)
	}
	if a.Blocks != 2 || a.ThreadsPerBlock != 64 {
		t.Fatal("Add must not change geometry")
	}
}

func TestKernelTimeIncludesLaunchOverhead(t *testing.T) {
	m := DefaultGPU()
	s := &LaunchStats{Blocks: 1, ThreadsPerBlock: 1, Ops: 1}
	if got := m.KernelTime(s); got < m.LaunchOverhead {
		t.Fatalf("KernelTime %v below launch overhead %v", got, m.LaunchOverhead)
	}
}

func TestKernelTimeMonotoneInWork(t *testing.T) {
	m := DefaultGPU()
	small := &LaunchStats{Blocks: 100, ThreadsPerBlock: 256, Ops: 1e6, GlobalReadBytes: 1e6}
	big := &LaunchStats{Blocks: 100, ThreadsPerBlock: 256, Ops: 1e9, GlobalReadBytes: 1e9}
	if m.KernelTime(small) >= m.KernelTime(big) {
		t.Fatal("more work should take longer")
	}
}

func TestKernelTimeOccupancyRamp(t *testing.T) {
	// Same total work on few threads vs many threads: the small launch
	// runs at lower utilization and must be slower. This is the effect
	// that makes 1K-element lists a poor GPU fit (paper Fig. 12).
	m := DefaultGPU()
	work := &LaunchStats{Blocks: 1, ThreadsPerBlock: 128, Ops: 1e7}
	saturated := &LaunchStats{Blocks: 256, ThreadsPerBlock: 256, Ops: 1e7}
	if m.KernelTime(work) <= m.KernelTime(saturated) {
		t.Fatal("under-occupied launch should be slower for equal work")
	}
}

func TestKernelTimeDivergencePenalty(t *testing.T) {
	m := DefaultGPU()
	coherent := &LaunchStats{Blocks: 256, ThreadsPerBlock: 256, Ops: 1e8}
	divergent := &LaunchStats{Blocks: 256, ThreadsPerBlock: 256, DivergentOps: 1e8}
	if m.KernelTime(divergent) <= m.KernelTime(coherent) {
		t.Fatal("divergent ops must cost more than coherent ops")
	}
}

func TestKernelTimeDependentChainPenalty(t *testing.T) {
	// Dependent single-lane chains cost more than divergent ops, which
	// cost more than coherent ops — the ordering that punishes direct
	// ports of sequential algorithms (§3.1.1).
	m := DefaultGPU()
	coherent := m.KernelTime(&LaunchStats{Blocks: 256, ThreadsPerBlock: 256, Ops: 1e8})
	divergent := m.KernelTime(&LaunchStats{Blocks: 256, ThreadsPerBlock: 256, DivergentOps: 1e8})
	dependent := m.KernelTime(&LaunchStats{Blocks: 256, ThreadsPerBlock: 256, DependentOps: 1e8})
	if !(coherent < divergent && divergent < dependent) {
		t.Fatalf("cost ordering violated: coherent=%v divergent=%v dependent=%v",
			coherent, divergent, dependent)
	}
}

func TestKernelTimeUncoalescedPenalty(t *testing.T) {
	m := DefaultGPU()
	coalesced := &LaunchStats{Blocks: 256, ThreadsPerBlock: 256, GlobalReadBytes: 1 << 28}
	scattered := &LaunchStats{Blocks: 256, ThreadsPerBlock: 256,
		GlobalReadBytes: 1 << 28, UncoalescedBytes: 1 << 28}
	if m.KernelTime(scattered) <= m.KernelTime(coalesced) {
		t.Fatal("uncoalesced traffic must cost more")
	}
}

func TestKernelTimeComputeMemoryOverlap(t *testing.T) {
	// max(compute, mem), not sum: a kernel with both streams equal should
	// cost about one stream plus overheads.
	m := DefaultGPU()
	memOnly := &LaunchStats{Blocks: 256, ThreadsPerBlock: 256, GlobalReadBytes: 208e6} // ~1ms
	both := &LaunchStats{Blocks: 256, ThreadsPerBlock: 256, GlobalReadBytes: 208e6, Ops: 1e5}
	dm, db := m.KernelTime(memOnly), m.KernelTime(both)
	if db > dm+dm/10 {
		t.Fatalf("overlapped kernel %v much slower than memory-bound %v", db, dm)
	}
}

func TestTransferTime(t *testing.T) {
	m := DefaultGPU()
	// 8 MB at 8 GB/s = 1 ms (+10us latency).
	got := m.TransferTime(8 << 20)
	want := m.PCIeLatency + time.Duration(float64(8<<20)/8e9*1e9)
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	if m.TransferTime(0) != m.PCIeLatency {
		t.Fatal("zero-byte transfer should cost exactly the latency")
	}
}

func TestCPUTimeComposition(t *testing.T) {
	m := DefaultCPU()
	w := CPUWork{MergedElements: 1000, BinaryProbes: 10, PFDDecodedElems: 100}
	want := 1000*m.MergePerElement + 10*m.BinarySearchPerProbe + 100*m.PFDDecodePerElement
	if got := m.Time(w); got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
}

func TestCPUWorkAdd(t *testing.T) {
	a := CPUWork{MergedElements: 1, BinaryProbes: 2, PFDDecodedElems: 3,
		EFDecodedElems: 4, ScoredDocs: 5, HeapCandidates: 6, BytesTouched: 7}
	a.Add(a)
	if a.MergedElements != 2 || a.BinaryProbes != 4 || a.PFDDecodedElems != 6 ||
		a.EFDecodedElems != 8 || a.ScoredDocs != 10 || a.HeapCandidates != 12 ||
		a.BytesTouched != 14 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestCPUBytesTouched(t *testing.T) {
	m := DefaultCPU()
	// 20 GB at 20 GB/s = 1 s.
	got := m.Time(CPUWork{BytesTouched: 20e9})
	if got < 900*time.Millisecond || got > 1100*time.Millisecond {
		t.Fatalf("20GB stream = %v, want ~1s", got)
	}
}

func TestCalibrationAnchorsFig12(t *testing.T) {
	// The Figure-12 anchor the models are calibrated to: decompressing a
	// 10M-element PForDelta list on the CPU lands near the paper's
	// ~100-120 ms curve point.
	m := DefaultCPU()
	d := m.Time(CPUWork{PFDDecodedElems: 10_000_000})
	if d < 80*time.Millisecond || d > 160*time.Millisecond {
		t.Fatalf("10M-element CPU PFD decode = %v, want ~110ms (Fig. 12 anchor)", d)
	}
}

func TestGPUFixedOverheadsDominateSmallInputs(t *testing.T) {
	// A ~1K-element job pays launch+transfer overheads that the compute
	// cannot amortize: total must exceed the pure compute time by a large
	// factor — the paper's reason small lists stay on the CPU.
	g := DefaultGPU()
	transfer := g.TransferTime(1 << 10)
	kernel := g.KernelTime(&LaunchStats{Blocks: 4, ThreadsPerBlock: 256, Ops: 20 * 1024})
	total := transfer + kernel
	if total < 15*time.Microsecond {
		t.Fatalf("tiny GPU job = %v, expected >= 15us of fixed overhead", total)
	}
}

// TestTransferPricingTable prices the two copy paths — host PCIe and the
// node's peer interconnect — across the size range, including the edges:
// zero-byte transfers cost exactly the fixed setup latency, and huge
// transfers converge to pure bandwidth (the latency term vanishes in the
// ratio).
func TestTransferPricingTable(t *testing.T) {
	m := DefaultGPU()
	cases := []struct {
		name       string
		bytes      int64
		wantHost   time.Duration
		wantPeer   time.Duration
		peerFaster bool
	}{
		{
			name:     "zero bytes costs setup latency only",
			bytes:    0,
			wantHost: m.PCIeLatency,
			wantPeer: m.PeerLatency,
			// 6us peer setup vs 10us host: peer wins even empty.
			peerFaster: true,
		},
		{
			name:       "1 KiB latency-dominated",
			bytes:      1 << 10,
			wantHost:   m.PCIeLatency + time.Duration(float64(1<<10)/m.PCIeBytesPerSec*1e9),
			wantPeer:   m.PeerLatency + time.Duration(float64(1<<10)/m.PeerBytesPerSec*1e9),
			peerFaster: true,
		},
		{
			name:       "8 MiB bandwidth region",
			bytes:      8 << 20,
			wantHost:   m.PCIeLatency + time.Duration(float64(8<<20)/m.PCIeBytesPerSec*1e9),
			wantPeer:   m.PeerLatency + time.Duration(float64(8<<20)/m.PeerBytesPerSec*1e9),
			peerFaster: true,
		},
		{
			name:       "4 GiB huge transfer",
			bytes:      4 << 30,
			wantHost:   m.PCIeLatency + time.Duration(float64(4<<30)/m.PCIeBytesPerSec*1e9),
			wantPeer:   m.PeerLatency + time.Duration(float64(4<<30)/m.PeerBytesPerSec*1e9),
			peerFaster: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			host := m.TransferTime(tc.bytes)
			peer := m.PeerTransferTime(tc.bytes)
			if host != tc.wantHost {
				t.Fatalf("TransferTime(%d) = %v, want %v", tc.bytes, host, tc.wantHost)
			}
			if peer != tc.wantPeer {
				t.Fatalf("PeerTransferTime(%d) = %v, want %v", tc.bytes, peer, tc.wantPeer)
			}
			if tc.peerFaster != (peer < host) {
				t.Fatalf("peer %v vs host %v: want peerFaster=%v", peer, host, tc.peerFaster)
			}
		})
	}

	// Huge transfers converge to the bandwidth ratio: with the K20
	// calibration (12 vs 8 GB/s) the peer path approaches 2/3 the host
	// time as latency amortizes away.
	hugeHost := m.TransferTime(4 << 30)
	hugePeer := m.PeerTransferTime(4 << 30)
	ratio := float64(hugePeer) / float64(hugeHost)
	wantRatio := m.PCIeBytesPerSec / m.PeerBytesPerSec
	if ratio < wantRatio*0.99 || ratio > wantRatio*1.01 {
		t.Fatalf("huge-transfer peer/host ratio %.4f, want ~%.4f (bandwidth ratio)", ratio, wantRatio)
	}

	// An uncalibrated model (no peer constants) prices peer copies at the
	// host path, never as free.
	bare := DefaultGPU()
	bare.PeerLatency, bare.PeerBytesPerSec = 0, 0
	for _, bytes := range []int64{0, 1 << 10, 8 << 20} {
		if got, want := bare.PeerTransferTime(bytes), bare.TransferTime(bytes); got != want {
			t.Fatalf("uncalibrated peer path: PeerTransferTime(%d) = %v, want host %v", bytes, got, want)
		}
	}
}
