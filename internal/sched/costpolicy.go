package sched

import (
	"time"

	"griffin/internal/hwmodel"
	"griffin/internal/intersect"
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
// price the long list's upload at kernels.EstimateUploadEF's ~7 bits/doc.
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

// estimateGPU approximates the device cost of one intersection: upload
// the long list compressed, decompress it, and run the fused MergePath
// launch, each priced by the kernel's own closed form.
func (p *CostPolicy) estimateGPU(shortLen, longLen int) time.Duration {
	decompress := kernels.EstimateParaEF(longLen)
	merge := kernels.EstimateMergePath(shortLen, longLen, &p.GPU)
	return p.GPU.TransferTime(kernels.EstimateUploadEF(longLen)) +
		p.GPU.KernelTime(&decompress) + p.GPU.KernelTime(&merge)
}

// estimateCPU approximates the host cost: the CPU intersection's own
// closed form, merge or skip search by its threshold.
func (p *CostPolicy) estimateCPU(shortLen, longLen int) time.Duration {
	return p.CPU.Time(intersect.EstimatePair(shortLen, longLen))
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
