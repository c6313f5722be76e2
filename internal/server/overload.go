package server

import (
	"net/http"
	"strconv"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/overload"
)

// OverloadConfig tunes the server's wall-clock admission gate. The
// cluster-side overload controls (deadline budgets, per-replica
// shedding, retry budgets, brownout) are configured on the cluster
// itself via cluster.Config.Overload; the gate is the HTTP layer's own
// defense: it bounds in-flight requests before they reach any backend.
type OverloadConfig struct {
	// MaxInflight bounds concurrently served /search requests
	// (<= 0 = unbounded, gate disabled).
	MaxInflight int
}

// ConfigureOverload installs the admission gate, which sheds on queue
// wait at overload.DefaultGateTarget. Call before serving traffic; a zero
// config leaves the server exactly as constructed.
func (s *Server) ConfigureOverload(cfg OverloadConfig) {
	s.gate = overload.NewGate(cfg.MaxInflight, 0, 0)
}

// parseQueryOpts extracts the per-query overload parameters
// (?deadline_ms=, ?class=) from a /search request. It writes a 400 and
// returns false on an invalid value, or on any overload parameter when
// the backend is not a cluster (single engines have no deadline
// machinery — silently dropping the contract would be worse than
// refusing it).
func (s *Server) parseQueryOpts(w http.ResponseWriter, r *http.Request) (cluster.QueryOpts, bool) {
	var qo cluster.QueryOpts
	dms := r.URL.Query().Get("deadline_ms")
	cls := r.URL.Query().Get("class")
	if dms == "" && cls == "" {
		return qo, true
	}
	if s.cluster == nil && s.liveCluster == nil {
		http.Error(w, `parameters "deadline_ms" and "class" require a cluster backend`, http.StatusBadRequest)
		return qo, false
	}
	if dms != "" {
		v, err := strconv.ParseFloat(dms, 64)
		// !(v > 0) also rejects NaN; the upper bound rejects Inf and
		// values that would overflow the Duration conversion.
		if err != nil || !(v > 0) || v > 1e12 {
			http.Error(w, `parameter "deadline_ms" must be a positive number`, http.StatusBadRequest)
			return qo, false
		}
		qo.Deadline = time.Duration(v * float64(time.Millisecond))
	}
	if cls != "" {
		c, ok := overload.ParseClass(cls)
		if !ok {
			http.Error(w, `parameter "class" must be "interactive" or "batch"`, http.StatusBadRequest)
			return qo, false
		}
		qo.Class = c
	}
	return qo, true
}

// GateJSON reports the admission gate in /statz.
type GateJSON struct {
	MaxInflight  int     `json:"max_inflight"`
	Inflight     int     `json:"inflight"`
	QueueDepth   int     `json:"queue_depth"`
	OldestWaitMS float64 `json:"oldest_wait_ms"`
	Admitted     int64   `json:"admitted"`
	Sheds        int64   `json:"sheds"`
}

// RetryBudgetJSON reports the cluster's aggregated retry/hedge token
// buckets.
type RetryBudgetJSON struct {
	Admissions int64   `json:"admissions"`
	Granted    int64   `json:"granted"`
	Denied     int64   `json:"denied"`
	Tokens     float64 `json:"tokens"`
}

// OverloadJSON is the /statz overload-control block, present only when
// an admission gate or any cluster overload control is configured — a
// server running without overload control emits byte-identical /statz
// output to the pre-overload build.
type OverloadJSON struct {
	// Gate is the HTTP admission gate (omitted when unbounded).
	Gate *GateJSON `json:"gate,omitempty"`
	// ShedRequests counts /search requests refused with 503: gate sheds
	// plus cluster-level shed/deadline refusals.
	ShedRequests int64 `json:"shed_requests"`
	// Cluster-side deadline parameters and counters (cluster mode only).
	DefaultDeadlineMS   float64          `json:"default_deadline_ms,omitempty"`
	MergeReserveMS      float64          `json:"merge_reserve_ms,omitempty"`
	BrownoutLevel       int              `json:"brownout_level"`
	BrownoutEscalations int64            `json:"brownout_escalations,omitempty"`
	BatchSheds          int64            `json:"batch_sheds,omitempty"`
	BrownoutDegraded    int64            `json:"brownout_degraded,omitempty"`
	RetryBudget         *RetryBudgetJSON `json:"retry_budget,omitempty"`
	ShardOffers         int64            `json:"shard_offers,omitempty"`
	ShardSheds          int64            `json:"shard_sheds,omitempty"`
	DeadlineInfeasible  int64            `json:"deadline_infeasible,omitempty"`
	DeadlineMisses      int64            `json:"deadline_misses,omitempty"`
	BudgetRejects       int64            `json:"budget_rejects,omitempty"`
	HedgeSkips          int64            `json:"hedge_skips,omitempty"`
}

// overloadJSON assembles the /statz overload block, or nil when no
// overload control is configured anywhere.
func (s *Server) overloadJSON() *OverloadJSON {
	cl := s.cl()
	clOn := cl != nil && cl.OverloadEnabled()
	if s.gate == nil && !clOn {
		return nil
	}
	oj := &OverloadJSON{ShedRequests: s.sheds.Load()}
	if s.gate != nil {
		gs := s.gate.Stats()
		oj.Gate = &GateJSON{
			MaxInflight:  gs.MaxInflight,
			Inflight:     gs.Inflight,
			QueueDepth:   gs.QueueDepth,
			OldestWaitMS: ms(gs.OldestWait),
			Admitted:     gs.Admitted,
			Sheds:        gs.Sheds,
		}
		oj.ShedRequests += gs.Sheds
	}
	if clOn {
		ost := cl.Overload()
		oj.DefaultDeadlineMS = ms(ost.DefaultDeadline)
		oj.MergeReserveMS = ms(ost.MergeReserve)
		oj.BrownoutLevel = ost.Brownout.Level
		oj.BrownoutEscalations = ost.Brownout.Escalations
		oj.BatchSheds = ost.Brownout.BatchSheds
		oj.BrownoutDegraded = ost.Brownout.Degraded
		if ost.RetryBudget != (overload.BudgetStats{}) {
			oj.RetryBudget = &RetryBudgetJSON{
				Admissions: ost.RetryBudget.Admissions,
				Granted:    ost.RetryBudget.Granted,
				Denied:     ost.RetryBudget.Denied,
				Tokens:     ost.RetryBudget.Tokens,
			}
		}
		oj.ShardOffers = ost.ShardOffers
		oj.ShardSheds = ost.ShardSheds
		oj.DeadlineInfeasible = ost.DeadlineInfeasible
		oj.DeadlineMisses = ost.DeadlineMisses
		oj.BudgetRejects = ost.BudgetRejects
		oj.HedgeSkips = ost.HedgeSkips
	}
	return oj
}

// shedRate is the /healthz overload signal: the fraction of /search
// requests refused by overload control (gate sheds plus cluster-level
// refusals) among all requests seen.
func (s *Server) shedRate() float64 {
	shed := s.sheds.Load()
	if s.gate != nil {
		shed += s.gate.Stats().Sheds
	}
	total := s.queries.Load() + shed
	if total == 0 {
		return 0
	}
	return float64(shed) / float64(total)
}
