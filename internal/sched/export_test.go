package sched

import "time"

// EstimateGPU exposes CostPolicy's device estimate to the external tests.
func (p *CostPolicy) EstimateGPU(shortLen, longLen int) time.Duration {
	return p.estimateGPU(shortLen, longLen)
}

// EstimateCPU exposes CostPolicy's host estimate to the external tests.
func (p *CostPolicy) EstimateCPU(shortLen, longLen int) time.Duration {
	return p.estimateCPU(shortLen, longLen)
}
