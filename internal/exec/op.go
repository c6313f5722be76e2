// Package exec is Griffin's physical query-plan layer: a query executes
// as a pipeline of typed operators — Fetch, Upload, Decompress,
// Intersect, Migrate, Score, TopK — each declaring its placement (CPU or
// GPU), its operand provenance (a posting list from the index vs the
// running intermediate result, host slice vs device buffer), and a
// closed-form cost hook into the hwmodel calibrations.
//
// The four execution modes of the paper (§4.4's CPU-only, Griffin-GPU,
// Griffin, and the Figure 1(c) per-query static hybrid) are one SvS plan
// builder (builder.go) under four placement policies: they differ only in
// where each intersection runs. Griffin's §3.2 scheduler lives exactly
// where the paper puts it conceptually: sched.Policy is a callback the
// builder consults before each intersection, including the sticky
// GPU-to-CPU Migrate decision. A single executor (run.go) walks whatever
// the builder produces with one shared execution context — device-buffer
// lifetime tracking, the simulated timeline (device operators of a step
// overlap across the copy and compute engines), and per-operator trace
// emission — so a new placement strategy is a new policy, not a new copy
// of the pipeline.
package exec

import (
	"time"

	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/intersect"
	"griffin/internal/kernels"
	"griffin/internal/sched"
)

// OpKind identifies an operator type.
type OpKind int

const (
	// OpFetch binds a term's posting list from the index (host).
	OpFetch OpKind = iota
	// OpUpload moves data into device memory over PCIe: a posting list's
	// compressed form, or the raw intermediate result.
	OpUpload
	// OpDecompress expands a device-resident compressed list with the
	// Para-EF kernel (§3.1.1).
	OpDecompress
	// OpIntersect intersects the running intermediate (or the first list)
	// with the next posting list, on either processor (§2.1.2, §3.1.2).
	OpIntersect
	// OpMigrate moves the intermediate result device-to-host (§3.2's
	// mid-query migration, or the end-of-plan drain).
	OpMigrate
	// OpScore evaluates BM25 over the surviving candidates (host, §2.1.3).
	OpScore
	// OpTopK selects the k best candidates (host partial sort, Figure 7).
	OpTopK
	// OpDeltaScan reconciles the intersection with the query's pinned
	// delta-index view (live ingestion): candidates superseded by the
	// delta (tombstoned or updated documents) are filtered out and the
	// delta's own qualifying documents are merged in. Host-placed; runs
	// after the main-segment plan and before scoring.
	OpDeltaScan
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpFetch:
		return "fetch"
	case OpUpload:
		return "upload"
	case OpDecompress:
		return "decompress"
	case OpIntersect:
		return "intersect"
	case OpMigrate:
		return "migrate"
	case OpScore:
		return "score"
	case OpTopK:
		return "topk"
	case OpDeltaScan:
		return "delta-scan"
	default:
		return "unknown"
	}
}

// Algo selects the concrete intersection algorithm of an OpIntersect.
type Algo int

const (
	// AlgoNone marks non-intersect operators.
	AlgoNone Algo = iota
	// AlgoCPUAdaptive is the host's merge-vs-skip-search choice (§2.2).
	AlgoCPUAdaptive
	// AlgoCPUDecode is the degenerate single-list "intersection": decode
	// the list on the host.
	AlgoCPUDecode
	// AlgoMergePath is the device MergePath kernel (comparable lengths).
	AlgoMergePath
	// AlgoBinarySkips is the device parallel binary search over skip
	// pointers (high length ratios, §3.1.2).
	AlgoBinarySkips
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case AlgoCPUAdaptive:
		return "cpu-adaptive"
	case AlgoCPUDecode:
		return "cpu-decode"
	case AlgoMergePath:
		return "merge-path"
	case AlgoBinarySkips:
		return "binary-skips"
	default:
		return ""
	}
}

// Operand declares where an operator's input comes from: a posting list
// of the index, or (List == nil) the running intermediate result. OnDevice
// records the declared residence at the time the plan step is built; the
// executor's state must agree when the operator runs.
type Operand struct {
	List     *index.PostingList
	OnDevice bool
}

// ListOperand is a host-resident posting-list operand.
func ListOperand(pl *index.PostingList) Operand { return Operand{List: pl} }

// Intermediate is the running-intermediate operand.
func Intermediate(onDevice bool) Operand { return Operand{OnDevice: onDevice} }

// Op is one operator of a physical query plan.
type Op struct {
	// Kind and Where identify the operator and its placement.
	Kind  OpKind
	Where sched.Processor
	// Arg is the operand of the unary operators (Upload, Decompress). An
	// Upload with Arg.List == nil uploads the raw intermediate result.
	Arg Operand
	// Short and Long are the Intersect operands (SvS probes the shorter
	// side into the longer).
	Short, Long Operand
	// Algo is the intersection algorithm (OpIntersect only).
	Algo Algo
	// Cacheable lets Upload consult the engine's resident-list cache.
	Cacheable bool
	// Final marks the end-of-plan drain Migrate: it does not set the
	// Migrated flag and skips the transfer when the intermediate is empty.
	Final bool
	// ShortLen and LongLen are the operand geometry the cost hook prices.
	ShortLen, LongLen int
}

// BatchKey names the operator's cross-query batch-compatibility class —
// the key the device runtime's batching stage coalesces on
// (gpu.QueryStream.SubmitOp). Ops with equal keys submitted to the same
// engine within one coalescing window ride one combined launch / DMA
// program; intersects key by algorithm so MergePath and binary-skip
// kernels never share a grid. Empty for host-placed operators (and for
// kinds with no device form), which opts them out of batching.
func (op *Op) BatchKey() string {
	switch op.Kind {
	case OpUpload:
		return "upload"
	case OpDecompress:
		return "decompress"
	case OpIntersect:
		if op.Where != sched.GPU {
			return ""
		}
		return "intersect:" + op.Algo.String()
	case OpMigrate:
		return "migrate"
	}
	return ""
}

// Estimate is the operator's cost hook: a closed-form prediction of its
// simulated duration under the calibrated hardware models, computed from
// the declared operand sizes alone (no execution). The executor records
// it beside each operator's measured time (OpRecord.Est).
func (op *Op) Estimate(cpuM *hwmodel.CPUModel, gpuM *hwmodel.GPUModel) time.Duration {
	switch op.Kind {
	case OpFetch:
		return cpuM.Time(hwmodel.CPUWork{CachedProbes: 1})
	case OpUpload:
		bytes := int64(op.ShortLen) * 4
		if op.Arg.List != nil {
			bytes = kernels.EstimateUploadEF(op.Arg.List.N)
		}
		return gpuM.TransferTime(bytes)
	case OpDecompress:
		st := kernels.EstimateParaEF(op.LongLen)
		return gpuM.KernelTime(&st)
	case OpIntersect:
		return estimateIntersect(op, cpuM, gpuM)
	case OpMigrate:
		return gpuM.TransferTime(int64(op.ShortLen) * 4)
	case OpScore:
		return cpuM.Time(hwmodel.CPUWork{ScoredDocs: int64(op.ShortLen * op.LongLen)})
	case OpTopK:
		return cpuM.Time(hwmodel.CPUWork{HeapCandidates: int64(op.ShortLen)})
	case OpDeltaScan:
		// One shadow-set probe per main candidate plus the merge of the
		// delta's qualifying documents (LongLen).
		return cpuM.Time(hwmodel.CPUWork{
			CachedProbes:   int64(op.ShortLen),
			MergedElements: int64(op.ShortLen + op.LongLen),
		})
	}
	return 0
}

// estimateIntersect prices one intersection under either placement with
// the closed form of the algorithm that runs it.
func estimateIntersect(op *Op, cpuM *hwmodel.CPUModel, gpuM *hwmodel.GPUModel) time.Duration {
	short, long := op.ShortLen, op.LongLen
	switch {
	case op.Algo == AlgoCPUDecode:
		return cpuM.Time(hwmodel.CPUWork{EFDecodedElems: int64(long)})
	case op.Algo == AlgoCPUAdaptive:
		return cpuM.Time(intersect.EstimatePair(short, long))
	case short == 0 || long == 0:
		return 0 // an empty operand launches no kernel
	case op.Algo == AlgoMergePath:
		st := kernels.EstimateMergePath(short, long, gpuM)
		return gpuM.KernelTime(&st)
	case op.Algo == AlgoBinarySkips:
		st := kernels.EstimateBinarySkips(short, long)
		return gpuM.KernelTime(&st[0]) + gpuM.KernelTime(&st[1])
	}
	return 0
}
