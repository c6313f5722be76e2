package core

import "time"

// SearchOptions carries a query's overload-control parameters into the
// engine. The zero value means no budget check, the configured top-k,
// and the configured plan mode.
type SearchOptions struct {
	// Budget is the query's remaining deadline budget on the modeled
	// clock. When positive, device admission rejects the query
	// (gpu.ErrBudget) if the placed device's backlog plus the estimated
	// transfer cost already exceeds it — shed at the door instead of
	// queued to die. Zero means no budget.
	Budget time.Duration
	// ForceCPU degrades the query to a CPU-only plan (brownout): no
	// device admission, no timeline contention, same answer.
	ForceCPU bool
	// TopK overrides the configured result count when positive (brownout
	// serves interactive queries at reduced top-k under pressure).
	TopK int
}

// estimateDeviceCost is the admission-time estimate of a query's device
// work: the transfer time of each term's compressed list, the same
// hwmodel quantity the affinity placement signal prices. It is a cheap
// lower bound — intersection and scoring come on top — which is the
// right bias for admission: an op rejected on the lower bound alone
// could never have met its deadline.
func (e *Engine) estimateDeviceCost(terms []string) time.Duration {
	model := e.node.Model()
	var est time.Duration
	for _, t := range terms {
		if pl, ok := e.ix.Lookup(t); ok {
			est += model.TransferTime(pl.EF.CompressedBytes())
		}
	}
	return est
}
