// Package sched implements Griffin's dynamic intra-query scheduling
// (§3.2): the decision, made before every pairwise intersection, of
// whether that operation runs on the GPU or the CPU.
//
// The policy the paper derives is a length-ratio threshold: with lists
// compressed in 128-element blocks, an intersection whose length ratio
// λ = |S|/|R| exceeds 128 is guaranteed to have skippable blocks in the
// long list (Figure 9's pigeonhole argument), which favours the CPU's
// skip-pointer binary search; below the threshold nearly every block must
// be decompressed anyway, which favours the GPU's parallel decompression
// and merge. The threshold is configurable and generalizes with the block
// size (§3.2: "we could generalize our analysis and choice of the value to
// different block sizes").
//
// Migration is sticky in the paper's prototype: once a query's
// intersections move to the CPU, the remainder of the query stays there
// (list ratios only grow as SvS progresses, so the GPU would not be chosen
// again). The Policy interface allows non-sticky alternatives.
package sched

// Processor identifies where an operation runs.
type Processor int

const (
	// CPU runs the operation on the host cores.
	CPU Processor = iota
	// GPU runs the operation on the device.
	GPU
)

// String implements fmt.Stringer.
func (p Processor) String() string {
	if p == GPU {
		return "GPU"
	}
	return "CPU"
}

// Decision is the outcome of one scheduling choice.
type Decision struct {
	// Where the operation should run.
	Where Processor
	// Ratio is the λ = |S|/|R| the decision was based on.
	Ratio float64
}

// Policy decides placement for each intersection of a query. A Policy
// instance is per-query (it may carry migration state); Fresh returns a
// clean instance for the next query. Every execution mode is a Policy
// over the one plan builder (exec.NewHybridBuilder).
type Policy interface {
	// Decide places the intersection of a shorter list of length
	// shortLen with a longer list of length longLen. A single-term query
	// has no intersection; the builder asks Decide(0, n) — an empty short
	// side — and decodes the list on the device only on a GPU answer.
	// Every policy here answers CPU there except AlwaysPolicy{GPU}.
	Decide(shortLen, longLen int) Decision
	// Fresh returns a new per-query instance of the same policy.
	Fresh() Policy
}

// DefaultCrossover is the GPU/CPU length-ratio threshold, equal to the
// compression block size per the paper's analysis and Figure 8's
// measurement.
const DefaultCrossover = 128

// RatioPolicy is the paper's threshold scheduler.
type RatioPolicy struct {
	// Crossover is the λ threshold (0 means DefaultCrossover).
	Crossover float64
	// Sticky keeps the query on the CPU after the first CPU decision
	// (the prototype's migration rule).
	Sticky bool

	migrated bool
}

// NewRatioPolicy returns the paper's default policy: crossover 128,
// sticky migration.
func NewRatioPolicy() *RatioPolicy {
	return &RatioPolicy{Crossover: DefaultCrossover, Sticky: true}
}

// Decide implements Policy.
func (p *RatioPolicy) Decide(shortLen, longLen int) Decision {
	threshold := p.Crossover
	if threshold <= 0 {
		threshold = DefaultCrossover
	}
	ratio := Ratio(shortLen, longLen)
	d := Decision{Where: CPU, Ratio: ratio}
	if p.Sticky && p.migrated {
		return d
	}
	if ratio < threshold && shortLen > 0 {
		d.Where = GPU
		return d
	}
	p.migrated = true
	return d
}

// Fresh implements Policy.
func (p *RatioPolicy) Fresh() Policy {
	return &RatioPolicy{Crossover: p.Crossover, Sticky: p.Sticky}
}

// Ratio returns λ = longLen/shortLen (infinity-ish when shortLen is 0).
func Ratio(shortLen, longLen int) float64 {
	if shortLen <= 0 {
		return float64(longLen) + 1e18
	}
	return float64(longLen) / float64(shortLen)
}

// AlwaysPolicy pins every operation to one processor: the CPU-only and
// GPU-only baselines of §4.4 are AlwaysPolicy{CPU} and AlwaysPolicy{GPU},
// and so is a brownout query forced onto the CPU.
type AlwaysPolicy struct{ Target Processor }

// Decide implements Policy.
func (p AlwaysPolicy) Decide(shortLen, longLen int) Decision {
	return Decision{Where: p.Target, Ratio: Ratio(shortLen, longLen)}
}

// Fresh implements Policy.
func (p AlwaysPolicy) Fresh() Policy { return p }

// PerQueryPolicy is the static hybrid of Figure 1(c) (Ding et al.,
// WWW'09): it asks Inner once — the query's first decision, made on its
// two shortest lists exactly like Griffin's — and pins that answer for
// every later intersection, so the whole query runs on one processor.
type PerQueryPolicy struct {
	Inner Policy

	decided bool
	where   Processor
}

// Decide implements Policy.
func (p *PerQueryPolicy) Decide(shortLen, longLen int) Decision {
	if !p.decided {
		p.where, p.decided = p.Inner.Decide(shortLen, longLen).Where, true
	}
	return Decision{Where: p.where, Ratio: Ratio(shortLen, longLen)}
}

// Fresh implements Policy.
func (p *PerQueryPolicy) Fresh() Policy { return &PerQueryPolicy{Inner: p.Inner.Fresh()} }

// SkippableBlocks returns the guaranteed-skippable block count of the long
// list under the Figure 9 pigeonhole argument: |S|/blockSize blocks minus
// at most |R| blocks that short-list elements can touch. It is never
// negative.
func SkippableBlocks(shortLen, longLen, blockSize int) int {
	blocks := (longLen + blockSize - 1) / blockSize
	skippable := blocks - shortLen
	if skippable < 0 {
		return 0
	}
	return skippable
}
