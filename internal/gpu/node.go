// Node runtime: a serving node with several accelerators.
//
// The paper's prototype (and DeviceRuntime, which models it under load)
// assumes one GPU per node; real serving nodes carry 4-8. NodeRuntime is
// the multi-device generalization: it owns N DeviceRuntimes — each a full
// device with its own compute lanes, split copy engines, and an
// *independent* global timeline — plus the node's inter-device
// interconnect, priced by hwmodel.GPUModel.PeerTransferTime. Following
// the MGSim/MGMark design point, the interconnect is a first-class
// modeled resource: moving data between devices (Stream.PeerIn) costs
// peer latency + bandwidth, distinct from the host PCIe path, so "use the
// copy on the sibling device" versus "re-upload from the host" is a
// priced scheduling decision rather than a free one.
//
// Placement — which device a query (or op) lands on — deliberately lives
// outside this package: sched.DevicePlacement policies read the per-
// device backlogs (Backlogs) and decide; the node only admits where it is
// told. A single-device node is bit-identical to a bare DeviceRuntime:
// every admission routes to device 0 and no peer path ever exists.
package gpu

import (
	"time"

	"griffin/internal/hwmodel"
)

// NodeRuntime multiplexes N simulated devices of one serving node. All
// methods are safe for concurrent use; per-device state is guarded by
// each DeviceRuntime's own lock, so queries on different devices never
// contend on a shared timeline — exactly the property that makes added
// devices add drain capacity.
type NodeRuntime struct {
	devs []*DeviceRuntime
}

// NewNode builds a node of n devices with the given compute-lane count
// each. Device 0 is dev itself — so a single-device node preserves the
// caller's device identity (memory accounting, telemetry) bit for bit —
// and devices 1..n-1 are fresh clones of it (same timing model, private
// memory). n <= 1 means 1.
func NewNode(dev *Device, n, streams int) *NodeRuntime {
	if n <= 1 {
		n = 1
	}
	node := &NodeRuntime{devs: make([]*DeviceRuntime, n)}
	for i := 0; i < n; i++ {
		d := dev
		if i > 0 {
			d = dev.Clone()
		}
		node.devs[i] = NewRuntime(d, streams)
		node.devs[i].index = i
	}
	return node
}

// Devices returns the node's device count.
func (n *NodeRuntime) Devices() int { return len(n.devs) }

// Runtime returns device i's runtime.
func (n *NodeRuntime) Runtime(i int) *DeviceRuntime { return n.devs[i] }

// Model returns the node's device timing model (shared by every device),
// which carries the peer-interconnect constants placement policies price
// transfers with.
func (n *NodeRuntime) Model() *hwmodel.GPUModel { return n.devs[0].dev.Model() }

// AdmitOn admits a query on device i (see DeviceRuntime.Admit).
func (n *NodeRuntime) AdmitOn(i int) *QueryStream { return n.devs[i].Admit() }

// AdmitOnWith admits a query on device i (see DeviceRuntime.AdmitWith).
func (n *NodeRuntime) AdmitOnWith(i int, a Admission) (*QueryStream, error) {
	return n.devs[i].AdmitWith(a)
}

// Backlogs reports each device's current compute backlog — the per-device
// load signal placement policies (sched.DevicePlacement) decide on.
func (n *NodeRuntime) Backlogs() []time.Duration {
	out := make([]time.Duration, len(n.devs))
	for i, rt := range n.devs {
		out[i] = rt.PendingTime()
	}
	return out
}

// BacklogsAt reports each device's compute backlog as seen by a query
// arriving at the given timeline point (the placement signal of a timed
// Admission; see DeviceRuntime.PendingAt).
func (n *NodeRuntime) BacklogsAt(arrival time.Duration) []time.Duration {
	out := make([]time.Duration, len(n.devs))
	for i, rt := range n.devs {
		out[i] = rt.PendingAt(arrival)
	}
	return out
}

// PendingTime reports the least-loaded device's compute backlog — the
// node-level sched.DeviceBacklog view: a query admitted now would be
// placed on (at least) that device, so the node's effective backlog is
// the minimum, not the sum.
func (n *NodeRuntime) PendingTime() time.Duration {
	min := n.devs[0].PendingTime()
	for _, rt := range n.devs[1:] {
		if p := rt.PendingTime(); p < min {
			min = p
		}
	}
	return min
}

// SetSubmitHook installs the submission interceptor on device i (see
// DeviceRuntime.SetSubmitHook) — fault injectors install per-device hooks
// so injected faults carry the device id in their site names.
func (n *NodeRuntime) SetSubmitHook(i int, h SubmitHook) { n.devs[i].SetSubmitHook(h) }

// EnableBatching installs the cross-query batching stage on every device
// (see DeviceRuntime.EnableBatching); a disabled config removes it. Each
// device batches independently — batches never span devices, just as they
// never span real GPUs.
func (n *NodeRuntime) EnableBatching(cfg BatchConfig) {
	for _, rt := range n.devs {
		rt.EnableBatching(cfg)
	}
}

// BatchStats aggregates the devices' batching telemetry (zero value when
// batching is disabled).
func (n *NodeRuntime) BatchStats() BatchStats {
	var st BatchStats
	for _, rt := range n.devs {
		st.Add(rt.BatchStats())
	}
	return st
}

// BatchSavings reports, per device, the fixed-cost rebate a freshly
// admitted query's compute work could expect from that device's open
// batches — the batch-aware complement of Backlogs that placement
// policies (sched.NodeInfo.BatchSaving) subtract from queue delay: a
// device with an open compatible batch is cheaper than its backlog alone
// suggests.
func (n *NodeRuntime) BatchSavings() []time.Duration {
	out := make([]time.Duration, len(n.devs))
	for i, rt := range n.devs {
		out[i] = rt.BatchSaving()
	}
	return out
}

// BatchSavingsAt is BatchSavings for a query arriving at an explicit
// point on the global timeline (the placement signal of a timed
// Admission).
func (n *NodeRuntime) BatchSavingsAt(arrival time.Duration) []time.Duration {
	out := make([]time.Duration, len(n.devs))
	for i, rt := range n.devs {
		out[i] = rt.BatchSavingAt(arrival)
	}
	return out
}

// NodeStats is a telemetry snapshot of the whole node.
type NodeStats struct {
	// Devices has one runtime snapshot per device, in device order.
	Devices []RuntimeStats
	// Admitted, ComputeBusy, CopyBusy, and Waited aggregate across
	// devices.
	Admitted    int64
	ComputeBusy time.Duration
	CopyBusy    time.Duration
	Waited      time.Duration
	// Utilization is aggregate compute busy time over the devices' total
	// timeline capacity (sum over devices of streams x that device's
	// horizon), in [0,1].
	Utilization float64
}

// Stats snapshots every device.
func (n *NodeRuntime) Stats() NodeStats {
	st := NodeStats{Devices: make([]RuntimeStats, len(n.devs))}
	var capacity float64
	for i, rt := range n.devs {
		d := rt.Stats()
		st.Devices[i] = d
		st.Admitted += d.Admitted
		st.ComputeBusy += d.ComputeBusy
		st.CopyBusy += d.CopyBusy
		st.Waited += d.Waited
		capacity += float64(d.Streams) * float64(d.Horizon)
	}
	if capacity > 0 {
		st.Utilization = float64(st.ComputeBusy) / capacity
	}
	return st
}

// Utilization returns the node's aggregate compute utilization (see
// NodeStats.Utilization). For a single-device node it equals the device
// runtime's own Utilization.
func (n *NodeRuntime) Utilization() float64 { return n.Stats().Utilization }
