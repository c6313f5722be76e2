package experiments

import (
	"context"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/loadsim"
	"griffin/internal/workload"
)

// Study is one entry of the suite: the key griffin-bench -only selects it
// by, and a run that returns its tables in print order.
type Study struct {
	Key string
	// Shared marks the studies that run on one end-to-end corpus and query
	// log; Run receives the Session that holds them (nil otherwise).
	Shared bool
	Run    func(cfg Config, s *Session) ([]*Table, error)
}

// Studies is the suite in run order. Every study prices device work on
// cfg.Device, which carries no timing from one study into the next (its
// memory is reserved once, at creation), so a study's tables do not
// depend on what ran before it. The shared-corpus studies are contiguous,
// so a runner can let the Session go once it reaches the next study.
var Studies = []Study{
	{"table1", false, alone(runTable1)},
	{"fig7", false, alone(runFig7)},
	{"fig8", false, alone(runFig8)},
	{"fig12", false, alone(runFig12)},
	{"fig13", false, alone(runFig13)},
	{"fig10", true, func(cfg Config, s *Session) ([]*Table, error) {
		c, err := s.corpusOnce()
		if err != nil {
			return nil, err
		}
		_, t, err := runFig10(cfg, c)
		return []*Table{t}, err
	}},
	{"fig11", true, func(_ Config, s *Session) ([]*Table, error) {
		_, _, err := s.log()
		return []*Table{s.fig11}, err
	}},
	{"fig14", true, func(_ Config, s *Session) ([]*Table, error) {
		_, t, err := s.fig14Once()
		return []*Table{t}, err
	}},
	{"fig15", true, func(_ Config, s *Session) ([]*Table, error) {
		// Figure 15 is the tail of Figure 14's run, not a run of its own.
		res, _, err := s.fig14Once()
		if err != nil {
			return nil, err
		}
		_, t := runFig15(res.CPURecorder, res.GriffinRecorder)
		return []*Table{t}, nil
	}},
	{"ablation", true, onLog(part(runCrossoverAblation), part(runMigrationAblation), part(runPolicyAblation))},
	{"load", true, onLog(part(runLoadStudy), part(runEngineLoadStudy), part(runStreamSweep))},
	{"cache", true, onLog(part(runCacheStudy))},
	{"cluster", false, alone(runShardSweep)},
	{"device", false, alone(runDeviceSweep)},
	{"batch", false, alone(runBatchSweep)},
	{"chaos", false, alone(runChaosSweep)},
	{"ingest", false, alone(runIngestSweep)},
	{"overload", false, alone(runOverloadSweep)},
	{"crash", false, alone(runCrashSweep)},
}

// alone, part and onLog fit the Run* functions to the list. Each returns
// (typed result, table, error); the typed result is what the shape tests
// assert on, and the list keeps the table.

// alone is a study that builds its own inputs from cfg.
func alone[R any](run func(Config) (R, *Table, error)) func(Config, *Session) ([]*Table, error) {
	return func(cfg Config, _ *Session) ([]*Table, error) {
		_, t, err := run(cfg)
		return []*Table{t}, err
	}
}

type logPart func(Config, *workload.Corpus, []workload.Query) (*Table, error)

func part[R any](run func(Config, *workload.Corpus, []workload.Query) (R, *Table, error)) logPart {
	return func(cfg Config, c *workload.Corpus, qs []workload.Query) (*Table, error) {
		_, t, err := run(cfg, c, qs)
		return t, err
	}
}

// onLog is a study whose parts each take the session's corpus and query
// log and print one table.
func onLog(parts ...logPart) func(Config, *Session) ([]*Table, error) {
	return func(cfg Config, s *Session) ([]*Table, error) {
		c, qs, err := s.log()
		if err != nil {
			return nil, err
		}
		var tables []*Table
		for _, run := range parts {
			t, err := run(cfg, c, qs)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		}
		return tables, nil
	}
}

// Session holds what the Shared studies of one run have in common, each
// piece built on first use: the end-to-end corpus, the query log Figure 11
// synthesizes (every query-driven study replays it), and Figure 14's run,
// whose recorders Figure 15 reads.
type Session struct {
	cfg     Config
	corpus  *workload.Corpus
	queries []workload.Query
	fig11   *Table
	fig14   *Fig14Result
	table14 *Table
}

// NewSession starts an empty session over cfg.
func NewSession(cfg Config) *Session { return &Session{cfg: cfg} }

func (s *Session) corpusOnce() (*workload.Corpus, error) {
	if s.corpus == nil {
		c, err := s.cfg.BuildCorpus()
		if err != nil {
			return nil, err
		}
		s.corpus = c
	}
	return s.corpus, nil
}

func (s *Session) log() (*workload.Corpus, []workload.Query, error) {
	c, err := s.corpusOnce()
	if err != nil {
		return nil, nil, err
	}
	if s.fig11 == nil {
		_, t, qs, err := runFig11(s.cfg, c)
		if err != nil {
			return nil, nil, err
		}
		s.fig11, s.queries = t, qs
	}
	return c, s.queries, nil
}

func (s *Session) fig14Once() (*Fig14Result, *Table, error) {
	if s.fig14 == nil {
		c, qs, err := s.log()
		if err != nil {
			return nil, nil, err
		}
		res, t, err := runFig14(s.cfg, c, qs)
		if err != nil {
			return nil, nil, err
		}
		s.fig14, s.table14 = &res, t
	}
	return s.fig14, s.table14, nil
}

// studyShape sizes one extension study's private corpus and read log:
// each {value at scale 1.0, floor}, plus the two seed offsets.
type studyShape struct {
	docs, terms, maxList, minList, queries [2]int
	corpusSeed, logSeed                    int64
}

var (
	// shardSweepShape (shard, device and batch sweeps): uniformly long
	// lists (no Zipf tail of tiny lists) so every shard's sub-query does
	// real device work at every shard count.
	shardSweepShape = studyShape{
		docs: [2]int{4_000_000, 1_000_000}, terms: [2]int{40, 24},
		maxList: [2]int{2_000_000, 500_000}, minList: [2]int{400_000, 100_000},
		queries: [2]int{400, 60}, corpusSeed: 41, logSeed: 43,
	}
	// chaosShape is a moderate scatter-gather corpus: long enough lists
	// that device faults hit mid-query, small enough that the sweep's
	// many cluster builds stay cheap.
	chaosShape = studyShape{
		docs: [2]int{2_000_000, 400_000}, terms: [2]int{32, 16},
		maxList: [2]int{1_000_000, 120_000}, minList: [2]int{200_000, 30_000},
		queries: [2]int{300, 80}, corpusSeed: 61, logSeed: 67,
	}
	// overloadShape is device-heavy: long enough lists that the device
	// timeline is the bottleneck (so overload is queueing, not CPU work),
	// small enough that the sweep's cluster builds stay cheap.
	overloadShape = studyShape{
		docs: [2]int{1_500_000, 200_000}, terms: [2]int{24, 12},
		maxList: [2]int{800_000, 60_000}, minList: [2]int{150_000, 15_000},
		queries: [2]int{400, 80}, corpusSeed: 401, logSeed: 409,
	}
	// ingestShape is the mixed read/write workload's corpus and read log.
	ingestShape = studyShape{
		docs: [2]int{2_000_000, 200_000}, terms: [2]int{40, 24},
		maxList: [2]int{1_000_000, 60_000}, minList: [2]int{200_000, 10_000},
		queries: [2]int{400, 80}, corpusSeed: 81, logSeed: 83,
	}
	// crashShape is small: the sweep opens many engines and each
	// checkpoint serializes the full segment, so the signal (replay
	// length, recovery time, survival accounting) needs volume in
	// mutations, not in postings.
	crashShape = studyShape{
		docs: [2]int{500_000, 20_000}, terms: [2]int{48, 16},
		maxList: [2]int{100_000, 4_000}, minList: [2]int{10_000, 500},
		queries: [2]int{200, 60}, corpusSeed: 91, logSeed: 93,
	}
)

// studyCorpus generates an extension study's corpus and read log. The
// studies share this function, not its output: generation is under 1% of
// any study's run (0.7 s of the shard sweep's minutes at scale 1.0).
func studyCorpus(cfg Config, sh studyShape) (*workload.Corpus, []workload.Query, error) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    cfg.scaled(sh.docs[0], sh.docs[1]),
		NumTerms:   cfg.scaled(sh.terms[0], sh.terms[1]),
		MaxListLen: cfg.scaled(sh.maxList[0], sh.maxList[1]),
		MinListLen: cfg.scaled(sh.minList[0], sh.minList[1]),
		Alpha:      0.6,
		Seed:       cfg.Seed + sh.corpusSeed,
	})
	if err != nil {
		return nil, nil, err
	}
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: cfg.scaled(sh.queries[0], sh.queries[1]), PopularityAlpha: 0.5, Seed: cfg.Seed + sh.logSeed,
	})
	return c, queries, nil
}

// termsOf returns the term lists of the first n queries (all of them when
// the log is shorter).
func termsOf(queries []workload.Query, n int) [][]string {
	if n > len(queries) {
		n = len(queries)
	}
	sample := make([][]string, n)
	for i, q := range queries[:n] {
		sample[i] = q.Terms
	}
	return sample
}

// meanLatency runs the sample one query at a time — no arrival process,
// so no queueing — and returns the mean modeled latency: the
// contention-free figure each study calibrates its offered load against.
func meanLatency(sample [][]string, search func(terms []string) (time.Duration, error)) (time.Duration, error) {
	var sum time.Duration
	for _, q := range sample {
		lat, err := search(q)
		if err != nil {
			return 0, err
		}
		sum += lat
	}
	return sum / time.Duration(len(sample)), nil
}

// scaling is what the shard, device and batching sweeps share: one sample
// and one Poisson load over it. The rate is fixed at the first point
// measured, at 24 / its isolated mean — overload deep enough that
// completed/makespan measures drain capacity — and held for every later
// point and arm, so each sees the same arrival process.
type scaling struct {
	sample [][]string
	seed   int64
	rate   float64
}

// sweepPass is one point of a scaling sweep: the contention-free mean and
// the saturated pass's result.
type sweepPass struct {
	iso time.Duration
	sat loadsim.Result
}

// throughput is the saturated drain rate: completed queries per second of
// makespan.
func (p sweepPass) throughput() float64 {
	return float64(p.sat.Latencies.Count()) / p.sat.Makespan.Seconds()
}

// measure runs one point of sw on two fresh systems from build: the
// sample one query at a time on the first, the common load on the second.
// The second comes back open, for the caller to read its counters and
// close.
func measure[S interface{ Close() }](sw *scaling, build func() (S, error),
	search func(S) func([]string) (time.Duration, error), target func(S) loadsim.Target) (sweepPass, S, error) {
	var (
		p    sweepPass
		none S
	)
	iso, err := build()
	if err != nil {
		return p, none, err
	}
	p.iso, err = meanLatency(sw.sample, search(iso))
	iso.Close()
	if err != nil {
		return p, none, err
	}
	if sw.rate == 0 {
		sw.rate = 24 / p.iso.Seconds()
	}
	sat, err := build()
	if err != nil {
		return p, none, err
	}
	if p.sat, err = loadsim.Drive(target(sat), sw.sample, loadsim.Spec{ArrivalRate: sw.rate, Seed: sw.seed}); err != nil {
		sat.Close()
		return p, none, err
	}
	return p, sat, nil
}

// engineSearch and clusterSearch are meanLatency's search over an engine
// and over a cluster.
func engineSearch(e *core.Engine) func([]string) (time.Duration, error) {
	return func(q []string) (time.Duration, error) {
		r, err := e.Search(q)
		if err != nil {
			return 0, err
		}
		return r.Stats.Latency, nil
	}
}

func clusterSearch(cl *cluster.Cluster) func([]string) (time.Duration, error) {
	return func(q []string) (time.Duration, error) {
		r, err := cl.Search(context.Background(), q)
		if err != nil {
			return 0, err
		}
		return r.Stats.Latency, nil
	}
}
