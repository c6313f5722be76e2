package sched

import (
	"time"

	"griffin/internal/hwmodel"
	"griffin/internal/kernels"
)

// CostPolicy schedules each intersection by comparing closed-form cost
// estimates of both placements under the calibrated hardware models,
// instead of the paper's fixed length-ratio threshold. The ratio rule is
// a proxy for exactly this comparison (§3.2 derives 128 from the
// block-size argument and validates it against measured cost curves); the
// estimator makes the comparison explicit, and adapts automatically if
// the models are recalibrated for different hardware — the "more complex
// scheduling" direction the paper says its scheduler can be extended
// toward.
//
// Estimates assume the short operand is already device-resident (true
// mid-query: the intermediate result lives where the previous op ran) and
// use the average compressed size of Elias-Fano postings (~7 bits/doc) for
// transfer costs.
type CostPolicy struct {
	// GPU and CPU are the models to estimate against.
	GPU hwmodel.GPUModel
	CPU hwmodel.CPUModel
	// Sticky keeps the query on the CPU after the first CPU decision,
	// like the paper's prototype.
	Sticky bool

	migrated bool
}

// NewCostPolicy returns a cost policy over the default calibrations.
func NewCostPolicy() *CostPolicy {
	return &CostPolicy{GPU: hwmodel.DefaultGPU(), CPU: hwmodel.DefaultCPU(), Sticky: true}
}

// CompressedBytes estimates the PCIe payload of an Elias-Fano-compressed
// list of n postings at 7 bits/posting — the paper's collections; the
// serving benchmark's synthetic fixture measures 7.44. Every closed-form
// estimator (this policy, exec.Op.Estimate) prices transfers with it.
func CompressedBytes(n int) int64 { return int64(n) * 7 / 8 }

// DecompressTime estimates the Para-EF decompression of an n-posting list:
// one thread per element streaming the compressed input in and the docIDs
// out, bandwidth-bound. The output buffer comes from the device's pool, so
// no cudaMalloc is priced.
func DecompressTime(n int, m *hwmodel.GPUModel) time.Duration {
	st := hwmodel.LaunchStats{
		Blocks:           (n + 127) / 128,
		ThreadsPerBlock:  128,
		Ops:              int64(6 * n),
		GlobalReadBytes:  CompressedBytes(n),
		GlobalWriteBytes: int64(4 * n),
	}
	return m.KernelTime(&st)
}

// estimateGPU approximates the device cost of one intersection: upload
// the long list compressed, decompress it, and run the fused MergePath
// launch, priced by the kernel's own closed form.
func (p *CostPolicy) estimateGPU(shortLen, longLen int) time.Duration {
	return p.GPU.TransferTime(CompressedBytes(longLen)) +
		DecompressTime(longLen, &p.GPU) +
		kernels.EstimateMergePath(shortLen, longLen, &p.GPU)
}

// estimateCPU approximates the host cost: below the CPU's own merge/skip
// switch it scans both lists; above it, it probes per short element.
func (p *CostPolicy) estimateCPU(shortLen, longLen int) time.Duration {
	if longLen < 16*shortLen {
		// Block-wise merge: decode both lists + scan.
		w := hwmodel.CPUWork{
			EFDecodedElems: int64(shortLen + longLen),
			MergedElements: int64(shortLen + longLen),
		}
		return p.CPU.Time(w)
	}
	// Skip search: galloping cached probes + in-block select probes.
	w := hwmodel.CPUWork{
		CachedProbes: int64(4 * shortLen),
		SelectProbes: int64(7 * shortLen),
	}
	return p.CPU.Time(w)
}

// Decide implements Policy.
func (p *CostPolicy) Decide(shortLen, longLen int) Decision {
	d := Decision{Where: CPU, Ratio: Ratio(shortLen, longLen)}
	if shortLen <= 0 {
		return d
	}
	if p.Sticky && p.migrated {
		return d
	}
	if p.estimateGPU(shortLen, longLen) < p.estimateCPU(shortLen, longLen) {
		d.Where = GPU
		return d
	}
	p.migrated = true
	return d
}

// Fresh implements Policy.
func (p *CostPolicy) Fresh() Policy {
	return &CostPolicy{GPU: p.GPU, CPU: p.CPU, Sticky: p.Sticky}
}
