package experiments

import (
	"fmt"
	"time"

	"griffin/internal/core"
	"griffin/internal/ingest"
	"griffin/internal/loadsim"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// IngestSweepPoint compares one write fraction with background merging
// off and on, under the same arrival process.
type IngestSweepPoint struct {
	// WriteFraction is the probability an arrival is a write; the
	// effective ingest rate is IngestRate (achieved writes per second
	// of makespan on the merge arm).
	WriteFraction float64
	IngestRate    float64
	Writes        int
	// MeanOff/P99Off and MeanOn/P99On are read sojourn times with
	// merging off (delta grows unboundedly; every read pays the
	// widening reconcile cost) and on (threshold merges re-encode the
	// delta on the shared device, contending with reads).
	MeanOff time.Duration
	P99Off  time.Duration
	MeanOn  time.Duration
	P99On   time.Duration
	// AvailabilityOff/On are successful reads over read attempts.
	AvailabilityOff float64
	AvailabilityOn  float64
	// Merges and MergeDevice/MergeCPU quantify the merge arm's
	// interference: commits and the simulated device/CPU time their
	// re-encoding occupied.
	Merges      int64
	MergeDevice time.Duration
	MergeCPU    time.Duration
	// LagOff/LagOn are residual unmerged delta records at the end of
	// the run; PeakOff/PeakOn the high-water marks.
	LagOff  int
	LagOn   int
	PeakOff int
	PeakOn  int
}

// IngestSweepResult is the live-mutation study: the same Poisson stream
// of mixed reads and writes driven through a live engine with
// background merging disabled and enabled at increasing write
// fractions.
//
// The mechanism under test: without merging, reads stay snapshot-
// isolated but each one reconciles an ever-growing delta on the host
// (shadow filtering, posting unions, stat overrides), so read latency
// degrades with total ingested volume. With threshold merging, the
// delta is periodically re-encoded into the compressed main segment on
// the same device timelines queries use — reads arriving during a
// merge queue behind its uploads and decompress work, a visible
// interference burst, but the steady-state reconcile cost stays
// bounded. Availability must hold through both regimes: every read
// returns a consistent pinned snapshot regardless of concurrent
// mutation or merge commits.
type IngestSweepResult struct {
	// Rate is the offered total arrival rate (reads + writes) per
	// second, calibrated as moderate load off the contention-free mean.
	Rate float64
	// Threshold is the merge-arm delta size that makes a merge due.
	Threshold int
	Points    []IngestSweepPoint
}

// ingestSweepScript generates a sequentially valid mutation script:
// adds of fresh documents built from query-log terms, interleaved with
// updates and deletes of documents the script already added.
func ingestSweepScript(cfg Config, queries []workload.Query, base uint32, n int) []loadsim.Mutation {
	rng := cfg.rng(87)
	doc := func() []string {
		t := make([]string, 0, 8)
		for len(t) < 4+rng.Intn(5) {
			q := queries[rng.Intn(len(queries))]
			t = append(t, q.Terms[rng.Intn(len(q.Terms))])
		}
		return t
	}
	muts := make([]loadsim.Mutation, 0, n)
	var live []uint32
	next := base
	for len(muts) < n {
		switch r := rng.Float64(); {
		case r < 0.7 || len(live) == 0:
			muts = append(muts, loadsim.Mutation{Op: wal.OpAdd, DocID: next, Tokens: doc()})
			live = append(live, next)
			next++
		case r < 0.85:
			muts = append(muts, loadsim.Mutation{Op: wal.OpUpdate, DocID: live[rng.Intn(len(live))], Tokens: doc()})
		default:
			i := rng.Intn(len(live))
			muts = append(muts, loadsim.Mutation{Op: wal.OpDelete, DocID: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return muts
}

// RunIngestSweep measures query p99 against ingest rate with and
// without background merging (recorded in
// testdata/extension_live_ingest_mixed-workload_sweep.json; go test
// -update rewrites it).
func RunIngestSweep(cfg Config) (IngestSweepResult, *Table, error) {
	c, queries, err := studyCorpus(cfg, ingestShape)
	if err != nil {
		return IngestSweepResult{}, nil, err
	}
	sample := termsOf(queries, cfg.scaled(400, 80))
	mutCount := cfg.scaled(480, 96)
	muts := ingestSweepScript(cfg, queries, uint32(c.Index.NumDocs), mutCount)
	threshold := mutCount / 8
	if threshold < 16 {
		threshold = 16
	}

	mkEngine := func(merge bool) (*ingest.Engine, error) {
		ecfg := ingest.Config{
			Engine: core.Config{Mode: core.Hybrid, CPU: cfg.CPU, Device: cfg.Device},
		}
		if merge {
			ecfg.MergeThreshold = threshold
		}
		return ingest.New(c.Index, ecfg)
	}

	// Calibrate moderate load off the contention-free mean: enough
	// concurrency that merge bursts queue reads, not so much that the
	// no-merge arm's growing reconcile cost diverges.
	probe, err := mkEngine(false)
	if err != nil {
		return IngestSweepResult{}, nil, err
	}
	mean, err := meanLatency(sample, func(q []string) (time.Duration, error) {
		r, err := probe.Search(q)
		if err != nil {
			return 0, err
		}
		return r.Stats.Latency, nil
	})
	probe.Close()
	if err != nil {
		return IngestSweepResult{}, nil, err
	}
	rate := 8 / mean.Seconds()

	res := IngestSweepResult{Rate: rate, Threshold: threshold}
	t := &Table{
		Title: "Extension: live ingest mixed-workload sweep (query p99 vs ingest rate)",
		Header: []string{"write frac", "ingest (w/s)", "p99 no-merge", "p99 merge", "mean merge",
			"avail", "merges", "merge dev", "lag off", "lag on"},
		Notes: []string{
			"one Poisson stream of mixed reads+writes per point; both arms replay the identical arrival process (the engine never consumes the rng)",
			fmt.Sprintf("offered load %.0f ops/s total (moderate: 8x the contention-free mean); ingest (w/s) = achieved writes/makespan on the merge arm", rate),
			fmt.Sprintf("merge arm commits a threshold merge (delta >= %d records) at its trigger time on the shared device timelines — reads queue behind its uploads/decompress", threshold),
			"no-merge arm lets the delta grow unboundedly: reads stay correct under snapshot isolation but pay the widening host-side reconcile cost",
			"avail = successful reads / read attempts on the merge arm; every read pins a consistent (segment, delta) snapshot across merge commits",
			"lag columns are residual unmerged delta records at end of run (the /healthz freshness signal)",
		},
	}

	for _, wf := range []float64{0, 0.2, 0.4, 0.6} {
		p := IngestSweepPoint{WriteFraction: wf}
		spec := loadsim.Spec{ArrivalRate: rate, Mutations: muts, WriteFraction: wf, Seed: cfg.Seed + 457}
		for _, merge := range []bool{false, true} {
			e, err := mkEngine(merge)
			if err != nil {
				return IngestSweepResult{}, nil, err
			}
			spec.Merge = merge
			r, err := loadsim.Drive(loadsim.LiveTarget(e), sample, spec)
			st := e.Stats()
			e.Close()
			if err != nil {
				return IngestSweepResult{}, nil, err
			}
			if merge {
				p.MeanOn = r.Latencies.Mean()
				p.P99On = r.Latencies.Percentile(99)
				p.AvailabilityOn = r.Available()
				p.Writes = r.Writes
				if r.Makespan > 0 {
					p.IngestRate = float64(r.Writes) / r.Makespan.Seconds()
				}
				p.Merges = st.Merges
				p.MergeDevice = st.MergeDevice
				p.MergeCPU = st.MergeCPU
				p.LagOn = st.DeltaDocs
				p.PeakOn = r.DeltaPeak
			} else {
				p.MeanOff = r.Latencies.Mean()
				p.P99Off = r.Latencies.Percentile(99)
				p.AvailabilityOff = r.Available()
				p.LagOff = st.DeltaDocs
				p.PeakOff = r.DeltaPeak
			}
		}
		res.Points = append(res.Points, p)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", wf),
			fmt.Sprintf("%.0f", p.IngestRate),
			ms(p.P99Off), ms(p.P99On), ms(p.MeanOn),
			fmt.Sprintf("%.3f", p.AvailabilityOn),
			fmt.Sprintf("%d", p.Merges),
			ms(p.MergeDevice),
			fmt.Sprintf("%d", p.LagOff),
			fmt.Sprintf("%d", p.LagOn),
		})
	}
	return res, t, nil
}
