package gpu

import (
	"testing"
	"time"

	"griffin/internal/hwmodel"
)

// A single-device node must be indistinguishable from a bare
// DeviceRuntime: same clocks, same queueing, same stats — the parity
// guarantee core.Engine relies on at devices=1.
func TestNodeSingleDeviceParity(t *testing.T) {
	run := func(admit func(i int) *QueryStream, stats func() RuntimeStats) (time.Duration, RuntimeStats) {
		var last time.Duration
		for i := 0; i < 3; i++ {
			h := admit(i)
			last = runQueryOps(t, h)
			if h.Device() != 0 {
				t.Fatalf("query on device %d, want 0", h.Device())
			}
			h.Release()
		}
		return last, stats()
	}

	rt := NewRuntime(New(hwmodel.DefaultGPU(), 0), 2)
	refClock, refStats := run(func(int) *QueryStream { return rt.Admit() }, rt.Stats)

	node := NewNode(New(hwmodel.DefaultGPU(), 0), 1, 2)
	if node.Devices() != 1 {
		t.Fatalf("Devices() = %d, want 1", node.Devices())
	}
	gotClock, gotStats := run(func(int) *QueryStream { return node.AdmitOn(0) }, func() RuntimeStats {
		return node.Runtime(0).Stats()
	})

	if gotClock != refClock {
		t.Fatalf("node clock %v != standalone %v", gotClock, refClock)
	}
	if gotStats != refStats {
		t.Fatalf("node device stats %+v != standalone %+v", gotStats, refStats)
	}
	ns := node.Stats()
	if ns.Admitted != refStats.Admitted || ns.ComputeBusy != refStats.ComputeBusy ||
		ns.CopyBusy != refStats.CopyBusy || ns.Waited != refStats.Waited {
		t.Fatalf("node aggregates %+v do not match device stats %+v", ns, refStats)
	}
	if ns.Utilization != refStats.Utilization {
		t.Fatalf("node utilization %v != device utilization %v", ns.Utilization, refStats.Utilization)
	}
	if node.Utilization() != rt.Stats().Utilization {
		t.Fatalf("Utilization() %v != standalone %v", node.Utilization(), rt.Stats().Utilization)
	}
}

// Devices have independent timelines: two queries admitted into the same
// epoch on different devices contend with nobody, while the same pair on
// one device charges the second query the first's service time.
func TestNodeDeviceTimelinesIndependent(t *testing.T) {
	node := NewNode(New(hwmodel.DefaultGPU(), 0), 2, 1)

	h0 := node.AdmitOn(0)
	h1 := node.AdmitOn(1)
	if h0.Device() != 0 || h1.Device() != 1 {
		t.Fatalf("device ids %d/%d, want 0/1", h0.Device(), h1.Device())
	}
	submit := func(h *QueryStream) {
		if err := h.Submit(ComputeEngine, func(s *Stream) error {
			s.Launch(testKernel("k"))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	submit(h0)
	submit(h1)
	if h0.Waited() != 0 || h1.Waited() != 0 {
		t.Fatalf("cross-device queueing charged: dev0 %v, dev1 %v", h0.Waited(), h1.Waited())
	}
	if h0.Elapsed() != h1.Elapsed() {
		t.Fatalf("identical kernels on sibling devices cost %v vs %v",
			h0.Elapsed(), h1.Elapsed())
	}
	h0.Release()
	h1.Release()

	// Same pair forced onto one device: the second query queues.
	one := NewNode(New(hwmodel.DefaultGPU(), 0), 2, 1)
	a, b := one.AdmitOn(0), one.AdmitOn(0)
	submit(a)
	submit(b)
	if b.Waited() == 0 {
		t.Fatal("same-device contention charged no queueing delay")
	}
	a.Release()
	b.Release()
}

// Device memory is private per device: an allocation on device 1 does not
// consume device 0's capacity.
func TestNodeDeviceMemoryIsPrivate(t *testing.T) {
	node := NewNode(New(hwmodel.DefaultGPU(), 0), 2, 1)
	h := node.AdmitOn(1)
	defer h.Release()
	if err := h.Submit(CopyEngine, func(s *Stream) error {
		_, err := s.H2D(make([]byte, 1<<20), 1<<20)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := node.Runtime(1).Device().Allocated(); got != 1<<20 {
		t.Fatalf("device 1 allocated %d, want %d", got, 1<<20)
	}
	if got := node.Runtime(0).Device().Allocated(); got != 0 {
		t.Fatalf("device 0 allocated %d after a device-1 upload", got)
	}
}

// Backlogs reports per-device load and PendingTime the minimum — the
// node-level routing signal: a new query would land on the idle device.
func TestNodeBacklogsAndPendingTime(t *testing.T) {
	node := NewNode(New(hwmodel.DefaultGPU(), 0), 2, 1)
	h := node.AdmitOn(0)
	defer h.Release()
	if err := h.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("busy"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bl := node.Backlogs()
	if len(bl) != 2 {
		t.Fatalf("Backlogs() len %d", len(bl))
	}
	if bl[0] == 0 {
		t.Fatal("loaded device reports zero backlog")
	}
	if bl[1] != 0 {
		t.Fatalf("idle device reports backlog %v", bl[1])
	}
	if node.PendingTime() != 0 {
		t.Fatalf("node PendingTime %v with an idle device", node.PendingTime())
	}
}

// PeerIn charges the peer-interconnect price — cheaper than the host PCIe
// path for large transfers under the default model, which is what makes
// sibling-cache copies worth preferring.
func TestNodePeerTransferPricing(t *testing.T) {
	model := hwmodel.DefaultGPU()
	node := NewNode(New(model, 0), 2, 1)

	const bytes = 8 << 20
	h := node.AdmitOn(1)
	defer h.Release()
	var peerElapsed time.Duration
	if err := h.Submit(CopyEngine, func(s *Stream) error {
		before := s.Elapsed()
		b, err := s.PeerIn(make([]byte, bytes), bytes)
		if err != nil {
			return err
		}
		peerElapsed = s.Elapsed() - before
		b.Free()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := model.PeerTransferTime(bytes)
	if peerElapsed != want {
		t.Fatalf("PeerIn charged %v, want the peer transfer's %v", peerElapsed, want)
	}
	if hostPath := model.TransferTime(bytes); peerElapsed >= hostPath {
		t.Fatalf("peer path %v not cheaper than host path %v for %d bytes",
			peerElapsed, hostPath, bytes)
	}
}
