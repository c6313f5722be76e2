package exec

import (
	"time"

	"griffin/internal/sched"
)

// OpRecord is one executed operator of a physical plan — the query's
// trace. Every operator the executor runs (including uploads,
// decompressions, migrations, scoring, and top-k) produces one record, so
// the records replay the query's full resource timeline: summing Took
// over the host records reproduces CPUTime, and summing it over the
// device records gives GPUTime plus QueryStats.Overlapped, the device
// work that ran side by side.
type OpRecord struct {
	// Kind and Algo identify the operator.
	Kind OpKind
	Algo Algo
	// Where the operator ran.
	Where sched.Processor
	// Device is the node-relative ordinal of the GPU a device-placed
	// operator (Upload, Decompress, Migrate, GPU Intersect) ran on;
	// always 0 on single-device nodes and for CPU operators.
	Device int
	// Peer reports that an Upload was served over the inter-device
	// interconnect from a sibling device's cache instead of the host
	// PCIe path (multi-GPU nodes only).
	Peer bool
	// Term is the posting list's term (Fetch, and the Upload and
	// Decompress of a list; empty for operators on the intermediate).
	Term string
	// NIn and NOut are the element counts entering and leaving the
	// operator (for Intersect, NIn is the short side).
	NIn, NOut int
	// Bytes is the PCIe payload of transfers (Upload, Migrate).
	Bytes int64
	// Start is when the operator began, as an offset on the query's own
	// timeline (0 = the first fetch, Latency = the end of top-k). Device
	// operators of one step overlap: the next list's upload starts while
	// the previous list is still being decompressed.
	Start time.Duration
	// Took is the operator's own simulated duration: service time plus,
	// on a shared device, the queueing delay it was charged.
	Took time.Duration
	// Est is the operator's closed-form cost-hook prediction (Op.Estimate),
	// recorded alongside the measured time so re-planners can judge the
	// estimator's fidelity.
	Est time.Duration
	// BatchID and BatchSize record cross-query batching membership when
	// the device runtime's batching stage coalesced this operator into a
	// combined launch: BatchID is the device-unique batch identifier and
	// BatchSize the operator's 1-based ordinal within it (1 = the batch
	// leader, which paid the full fixed costs; the final member's ordinal
	// is the batch's total size). Both zero for unbatched operators —
	// batching disabled, host-placed, or keyed out.
	BatchID   int64
	BatchSize int
}

// QueryStats aggregates one query's simulated execution.
type QueryStats struct {
	// Latency is the end-to-end simulated response time.
	Latency time.Duration
	// CPUTime and GPUTime split the latency by processor. GPUTime is the
	// advance of the query's device clock — the critical path through its
	// copy-in, compute and copy-out streams, not the sum of its operators.
	CPUTime time.Duration
	GPUTime time.Duration
	// Overlapped is the device time the query saved by running operators
	// of one step side by side on different engines: the sum of the
	// device-placed Plan records' Took minus Overlapped equals GPUTime.
	Overlapped time.Duration
	// GPUWait is the modeled queueing delay the query was charged while
	// the shared device runtime served other queries' work. It is part
	// of the device operators' Took (the waits happen on the device
	// timeline); zero when the query ran contention-free or on private
	// streams.
	GPUWait time.Duration
	// Migrated reports whether a Hybrid query moved from GPU to CPU.
	Migrated bool
	// FallbackCPU reports that the original plan died on an injected
	// device fault and the engine re-ran the query on the CPU-only plan.
	// The results are correct (the CPU is a full-fidelity executor for
	// the same query work — the paper's hybrid symmetry); only latency
	// degrades.
	FallbackCPU bool
	// FaultWasted is the simulated device time the aborted plan had
	// already accumulated when the fault hit. On a fallback query it is
	// carried into GPUTime (and therefore Latency): the device work was
	// spent even though its results were discarded.
	FaultWasted time.Duration
	// Fault describes the injected fault that aborted the original plan
	// (empty when the query ran clean).
	Fault string
	// Candidates is the final intersection size entering ranking.
	Candidates int
	// Plan traces every executed operator of the physical plan.
	Plan []OpRecord
}
