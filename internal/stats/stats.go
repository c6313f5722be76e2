// Package stats provides the latency-analysis utilities the evaluation
// needs: exact percentiles over latency samples (the Figure 15 tail-latency
// study), CDFs (Figure 10's list-size distribution), simple histograms
// (Figure 11's term-count distribution), and the ratio-group bucketing of
// Figure 8.
package stats

import (
	"fmt"
	"sort"
	"time"
)

// LatencyRecorder accumulates per-query latencies.
type LatencyRecorder struct {
	samples []time.Duration
	sorted  bool
}

// NewLatencyRecorder returns a recorder with capacity preallocated for n
// samples.
func NewLatencyRecorder(n int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]time.Duration, 0, n)}
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// sortSamples sorts lazily; percentile queries share the sorted order.
func (r *LatencyRecorder) sortSamples() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank definition, which is exact for the tail percentiles the
// paper reports (P80/P90/P95/P99/P99.9 over 10K queries).
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sortSamples()
	rank := int(p/100*float64(len(r.samples))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(r.samples) {
		rank = len(r.samples) - 1
	}
	return r.samples[rank]
}

// Mean returns the arithmetic mean.
func (r *LatencyRecorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Max returns the largest sample.
func (r *LatencyRecorder) Max() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sortSamples()
	return r.samples[len(r.samples)-1]
}

// CDF computes the cumulative fraction of values <= each threshold.
// Thresholds must be ascending. Used for Figure 10's list-size CDF.
func CDF(values []int, thresholds []int) []float64 {
	sorted := make([]int, len(values))
	copy(sorted, values)
	sort.Ints(sorted)
	out := make([]float64, len(thresholds))
	for i, th := range thresholds {
		// Count of values <= th.
		n := sort.SearchInts(sorted, th+1)
		if len(sorted) > 0 {
			out[i] = float64(n) / float64(len(sorted))
		}
	}
	return out
}

// Histogram counts values into labeled integer bins. Used for Figure 11's
// query-term-count distribution.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add counts one observation of bin v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
}

// Fraction returns the fraction of observations in bin v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// RatioGroup is one of Figure 8's list-length-ratio buckets.
type RatioGroup struct {
	Lo, Hi int // ratio in [Lo, Hi)
}

// String renders the paper's "[lo,hi)" notation.
func (g RatioGroup) String() string { return fmt.Sprintf("[%d,%d)", g.Lo, g.Hi) }

// PaperRatioGroups returns the seven groups of §3.2: [1,16), [16,32),
// [32,64), [64,128), [128,256), [256,512), [512,1024).
func PaperRatioGroups() []RatioGroup {
	return []RatioGroup{
		{1, 16}, {16, 32}, {32, 64}, {64, 128}, {128, 256}, {256, 512}, {512, 1024},
	}
}
