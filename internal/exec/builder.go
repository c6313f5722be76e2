package exec

import (
	"griffin/internal/index"
	"griffin/internal/sched"
)

// State is the executor's runtime view handed to a Builder before each
// plan step: how large the running intermediate currently is (the
// shortest list's length before the first intersection) and where it
// lives. Builders need it because SvS shrinks the intermediate as the
// query proceeds — the exact dynamics Griffin's scheduler reacts to.
type State struct {
	// Len is the current intermediate result length.
	Len int
	// OnDevice reports whether the intermediate is device-resident.
	OnDevice bool
}

// Builder constructs a physical plan incrementally: Next returns the
// operators of the next pipeline step, or nil when the plan is complete.
// A Builder instance is per-query. There is one implementation,
// NewHybridBuilder's: the four execution modes are four placement
// policies handed to it, not four builders.
type Builder interface {
	Next(st State) []Op
}

// NewHybridBuilder plans the SvS pipeline of Figure 1, asking policy to
// place each intersection before it runs (§3.2). The execution modes
// differ only in that policy: sched.AlwaysPolicy{CPU} is the CPU-only
// baseline (a), AlwaysPolicy{GPU} Griffin-GPU (b), sched.PerQueryPolicy
// the per-query hybrid (c), and the ratio policy Griffin (d).
//
// The first CPU placement after device execution emits a Migrate (the
// paper's sticky GPU-to-CPU migration, billed at PCIe cost); non-sticky
// policies may move back, re-uploading a host-resident intermediate raw.
// An empty intermediate — an empty first list included — ends the plan
// before the next intersection. On the device each intersection adapts
// to its operands (§3.1.2): MergePath below the crossover ratio, parallel
// binary search over skip pointers above it.
func NewHybridBuilder(lists []*index.PostingList, policy sched.Policy, crossover float64) Builder {
	return &builder{lists: lists, policy: policy.Fresh(), crossover: crossover, i: 1}
}

type builder struct {
	lists     []*index.PostingList
	policy    sched.Policy
	crossover float64
	i         int
	done      bool
}

func (b *builder) Next(st State) []Op {
	if b.done {
		return nil
	}
	if len(b.lists) == 1 {
		b.done = true
		return b.single()
	}
	if b.i >= len(b.lists) || st.Len == 0 {
		b.done = true
		if st.OnDevice {
			// Query finished on the device: bring the final result home.
			return []Op{{Kind: OpMigrate, Where: sched.GPU, Arg: Intermediate(true), Final: true, ShortLen: st.Len}}
		}
		return nil
	}
	long := b.lists[b.i]
	shortLen := st.Len
	d := b.policy.Decide(shortLen, long.N)
	if d.Where == sched.GPU {
		var ops []Op
		var short Operand
		switch {
		case b.i == 1:
			first := b.lists[0]
			ops = append(ops,
				Op{Kind: OpUpload, Where: sched.GPU, Arg: ListOperand(first), Cacheable: true},
				Op{Kind: OpDecompress, Where: sched.GPU, Arg: ListOperand(first), LongLen: first.N})
			short = Operand{List: first, OnDevice: true}
		case st.OnDevice:
			short = Intermediate(true)
		default:
			// Intermediate on host (non-sticky policies): upload it raw.
			ops = append(ops, Op{Kind: OpUpload, Where: sched.GPU, Arg: Intermediate(false), ShortLen: shortLen})
			short = Intermediate(true)
		}
		b.i++
		return append(ops, gpuIntersectOps(short, long, shortLen, b.crossover)...)
	}
	// CPU placement: migrate the intermediate off the device first.
	var ops []Op
	if st.OnDevice {
		ops = append(ops, Op{Kind: OpMigrate, Where: sched.GPU, Arg: Intermediate(true), ShortLen: shortLen})
	}
	short := Intermediate(false)
	if b.i == 1 {
		short = ListOperand(b.lists[0])
	}
	b.i++
	sl, ll := min(shortLen, long.N), max(shortLen, long.N)
	return append(ops, Op{
		Kind: OpIntersect, Where: sched.CPU, Algo: AlgoCPUAdaptive,
		Short: short, Long: ListOperand(long), ShortLen: sl, LongLen: ll,
	})
}

// single plans a one-term query. There is no intersection to place, so
// the builder asks the policy about an empty short side, Decide(0, n): a
// device answer uploads, decompresses and drains the list (Griffin-GPU);
// any other decodes it on the host — tiny fixed work, no transfer.
func (b *builder) single() []Op {
	pl := b.lists[0]
	if b.policy.Decide(0, pl.N).Where == sched.GPU {
		return []Op{
			{Kind: OpUpload, Where: sched.GPU, Arg: ListOperand(pl), Cacheable: true},
			{Kind: OpDecompress, Where: sched.GPU, Arg: ListOperand(pl), LongLen: pl.N},
			{Kind: OpMigrate, Where: sched.GPU, Arg: ListOperand(pl), Final: true, ShortLen: pl.N},
		}
	}
	return []Op{{
		Kind: OpIntersect, Where: sched.CPU, Algo: AlgoCPUDecode,
		Short: ListOperand(pl), Long: ListOperand(pl), ShortLen: pl.N, LongLen: pl.N,
	}}
}

// gpuIntersectOps emits one device intersection step: the long operand's
// residency ops (decompressed for MergePath below the crossover ratio,
// compressed-with-skip-pointers above it) followed by the kernel.
//
// The binary-skips upload deliberately bypasses the resident-list cache:
// the paper's high-ratio path probes the compressed blocks in place and
// its uploads are small relative to the short side's decompression, so
// caching them would evict hotter merge-path lists.
func gpuIntersectOps(short Operand, long *index.PostingList, shortLen int, crossover float64) []Op {
	if sched.Ratio(shortLen, long.N) < crossover {
		return []Op{
			{Kind: OpUpload, Where: sched.GPU, Arg: ListOperand(long), Cacheable: true},
			{Kind: OpDecompress, Where: sched.GPU, Arg: ListOperand(long), LongLen: long.N},
			{Kind: OpIntersect, Where: sched.GPU, Algo: AlgoMergePath,
				Short: short, Long: Operand{List: long, OnDevice: true},
				ShortLen: shortLen, LongLen: long.N},
		}
	}
	return []Op{
		{Kind: OpUpload, Where: sched.GPU, Arg: ListOperand(long)},
		{Kind: OpIntersect, Where: sched.GPU, Algo: AlgoBinarySkips,
			Short: short, Long: Operand{List: long, OnDevice: true},
			ShortLen: shortLen, LongLen: long.N},
	}
}
