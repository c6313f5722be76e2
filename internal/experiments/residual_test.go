package experiments

import (
	"sort"
	"testing"

	"griffin/internal/core"
	"griffin/internal/exec"
	"griffin/internal/sched"
)

// opClass is one row of the residual table: an operator kind, its
// intersection algorithm and its placement.
type opClass struct {
	kind  exec.OpKind
	algo  exec.Algo
	where sched.Processor
}

// residualBand bounds one class's Took/Est on one mode's run: the median
// in [medLo, medHi], the max at most max.
type residualBand struct{ medLo, medHi, max float64 }

// residualBands states each class's band on every mode that runs it.
var residualBands = map[opClass]residualBand{
	{exec.OpFetch, exec.AlgoNone, sched.CPU}:   {0.99, 1.01, 1.01},
	{exec.OpScore, exec.AlgoNone, sched.CPU}:   {0.99, 1.01, 1.01},
	{exec.OpTopK, exec.AlgoNone, sched.CPU}:    {0.99, 1.01, 1.01},
	{exec.OpMigrate, exec.AlgoNone, sched.GPU}: {0.99, 1.01, 1.01},
	// No device class pays for an allocation (the device reserved its
	// memory at start), so each max is its estimate's own error: the
	// upload's 7 bits a posting against each list's real size, and the
	// intersections' priced volume against the launch's.
	{exec.OpUpload, exec.AlgoNone, sched.GPU}: {0.95, 1.05, 1.1},
	// Pinned exception, a median of 2.01 in every mode: the Para-EF
	// estimate (kernels.EstimateParaEF) leaves out the kernel's 4 phases,
	// its shared traffic and its divergence.
	{exec.OpDecompress, exec.AlgoNone, sched.GPU}:       {1.95, 2.05, 2.1},
	{exec.OpIntersect, exec.AlgoMergePath, sched.GPU}:   {0.95, 1.05, 1.1},
	{exec.OpIntersect, exec.AlgoBinarySkips, sched.GPU}: {0.95, 1.05, 1.05},
	{exec.OpIntersect, exec.AlgoCPUAdaptive, sched.CPU}: {0.95, 1.4, 2.5},
}

// TestEstimateResiduals runs Figure 14's log under the CPU-only, GPU-only
// and Griffin plans and holds each operator class's Took/Est — the
// executor's simulated time over the operator's closed-form estimate
// (Op.Estimate) — to its band, mode by mode (ROADMAP item 17 (d)).
func TestEstimateResiduals(t *testing.T) {
	cfg, c, queries := fig14Inputs(t)
	seen := map[opClass]bool{}
	for _, mode := range []core.Mode{core.CPUOnly, core.GPUOnly, core.Hybrid} {
		e, err := core.New(c.Index, core.Config{Mode: mode, CPU: cfg.CPU, Device: cfg.Device})
		if err != nil {
			t.Fatal(err)
		}
		ratios := map[opClass][]float64{}
		for _, q := range queries {
			r, err := e.Search(q.Terms)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range r.Stats.Plan {
				if op.Est > 0 {
					k := opClass{op.Kind, op.Algo, op.Where}
					ratios[k] = append(ratios[k], float64(op.Took)/float64(op.Est))
				}
			}
		}
		classes := make([]opClass, 0, len(ratios))
		for k := range ratios {
			classes = append(classes, k)
		}
		sort.Slice(classes, func(i, j int) bool {
			a, b := classes[i], classes[j]
			return a.kind < b.kind || a.kind == b.kind && (a.algo < b.algo || a.algo == b.algo && a.where < b.where)
		})
		for _, k := range classes {
			r := ratios[k]
			seen[k] = true
			sort.Float64s(r)
			med, hi := r[len(r)/2], r[len(r)-1]
			t.Logf("%-8v %-10v %-13v %v: n %4d, median %.3f, max %.3f", mode, k.kind, k.algo, k.where, len(r), med, hi)
			b, ok := residualBands[k]
			if !ok {
				t.Errorf("%v: %v %v %v has no residual band", mode, k.kind, k.algo, k.where)
				continue
			}
			if med < b.medLo || med > b.medHi || hi > b.max {
				t.Errorf("%v: %v %v %v Took/Est median %.3f, max %.3f; band [%.2f, %.2f], max %.2f",
					mode, k.kind, k.algo, k.where, med, hi, b.medLo, b.medHi, b.max)
			}
		}
	}
	for k := range residualBands {
		if !seen[k] {
			t.Errorf("no mode ran %v %v %v", k.kind, k.algo, k.where)
		}
	}
}
