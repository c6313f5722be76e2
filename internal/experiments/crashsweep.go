package experiments

import (
	"os"
	"time"

	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/ingest"
	"griffin/internal/loadsim"
)

// CrashSweepPoint is one checkpoint cadence of the crash-recovery study,
// aggregated over several seeded crash points (half of them landing on
// an injected torn append, so recovery exercises the truncate path).
type CrashSweepPoint struct {
	// CheckpointEvery is the mutation count between checkpoints
	// (0 = none: recovery replays the whole log).
	CheckpointEvery int
	Trials          int
	// Acked/Recovered total the sync-every-append arm across trials;
	// Survival is their ratio. The durability contract requires exactly
	// 1.0: an acknowledged write is a synced write, so no crash point —
	// torn tail included — may lose one.
	Acked     int
	Recovered int
	Survival  float64
	// DeferredAcked/DeferredRecovered/DeferredSurvival are the same
	// crash points under WALSyncEvery -1 (sync only at checkpoints and
	// close): only the prefix a checkpoint made durable survives, so
	// this column rises with checkpoint frequency — the knob's trade
	// made visible.
	DeferredAcked     int
	DeferredRecovered int
	DeferredSurvival  float64
	// MeanRecovery and MeanReplay are recovery wall-clock and replayed
	// WAL suffix length per trial on the sync arm; checkpoints bound
	// both.
	MeanRecovery time.Duration
	MeanReplay   float64
	// Checkpoints totals committed checkpoints; TornTrials counts the
	// trials whose log ended in an injected torn append, and
	// TruncatedBytes what recovery discarded from those tails.
	Checkpoints    int64
	TornTrials     int
	TruncatedBytes int64
}

// CrashSweepResult is the durable-ingest crash-recovery sweep:
// acknowledged-write survival and recovery time against checkpoint
// interval, sync-every-append vs deferred sync, over seeded crash
// points with and without torn-tail fault injection.
type CrashSweepResult struct {
	// Mutations is the scripted workload length each trial crashes
	// somewhere inside.
	Mutations int
	Points    []CrashSweepPoint
}

// runCrashSweep measures acknowledged-write survival and recovery time
// against checkpoint interval on a durable live engine (recorded in
// testdata/extension_crash-recovery_sweep.json; go test -update rewrites
// it). Every trial crashes at a seeded point in the same
// mutation script — odd trials through an injected torn append, so the
// log ends mid-record — and reopens the directory. Two arms per trial:
// sync-every-append, whose survival must be 100% at every cadence (the
// ack barrier is the invariant under test), and deferred sync, whose
// survival is whatever the last checkpoint covered — the cost of
// trading the sync tail away.
func runCrashSweep(cfg Config) (CrashSweepResult, *Table, error) {
	c, queries, err := studyCorpus(cfg, crashShape)
	if err != nil {
		return CrashSweepResult{}, nil, err
	}
	mutCount := cfg.scaled(240, 64)
	muts := ingestSweepScript(cfg, queries, uint32(c.Index.NumDocs), mutCount)
	trials := cfg.scaled(6, 4)
	rng := cfg.rng(97)

	res := CrashSweepResult{Mutations: mutCount}
	t := &Table{
		Title: "Extension: crash-recovery sweep (acknowledged-write survival vs checkpoint interval)",
		Columns: []Column{count("ckpt every"), count("trials"), pct("survival", 2), pct("survival (deferred sync)", 2),
			Column{Name: "mean recovery", Unit: "ms", Clock: Wall, Prec: 3}, Column{Name: "mean replay", Clock: Count, Prec: 1},
			count("ckpts"), count("torn trials"), count("torn bytes")},
	}
	t.note("{}-mutation script, {} seeded crash points per cadence; odd trials crash through an injected torn append",
		count("mutations").of(mutCount), count("trials").of(trials))
	t.note("survival = recovered generations / acknowledged mutations, totaled across trials")
	t.note("sync arm (-wal-sync 1) must read 100.00% at every cadence: acknowledged means synced, so no crash point may lose a write")
	t.note("deferred arm (-wal-sync -1, fault-free) syncs only at checkpoints: survival is the checkpoint-covered prefix — rises with cadence")
	t.note("mean recovery is wall-clock Open() on the crashed directory; mean replay the WAL suffix past the newest usable checkpoint")

	for _, every := range []int{0, mutCount / 4, mutCount / 16} {
		p := CrashSweepPoint{CheckpointEvery: every, Trials: trials}
		var recSum time.Duration
		var replaySum int64
		for trial := 0; trial < trials; trial++ {
			crashAfter := 1 + rng.Intn(mutCount)
			torn := trial%2 == 1
			var ckptAt []int
			if every > 0 {
				for at := every; at <= crashAfter; at += every {
					ckptAt = append(ckptAt, at)
				}
			}
			runArm := func(syncEvery int, inject bool) (loadsim.CrashResult, error) {
				dir, err := os.MkdirTemp("", "griffin-crash-*")
				if err != nil {
					return loadsim.CrashResult{}, err
				}
				defer os.RemoveAll(dir)
				ecfg := ingest.Config{
					Engine: core.Config{Mode: core.CPUOnly, CPU: cfg.CPU},
					WALDir: dir, WALSyncEvery: syncEvery,
				}
				if inject {
					// One torn append on the crash trial's final mutation:
					// the tail syncs corrupted, the log wedges, and the
					// mutation is never acknowledged — recovery must
					// truncate it away, not replay it.
					ecfg.Fault = fault.NewInjector(fault.Plan{
						Seed: cfg.Seed + int64(trial)*131,
						Rules: []fault.Rule{{
							Kind: fault.TornWrite, Rate: 1,
							After: int64(crashAfter - 1), Until: int64(crashAfter),
						}},
					})
				}
				return loadsim.RunCrash(c.Index, muts, loadsim.CrashSpec{
					Config: ecfg, CrashAfter: crashAfter, CheckpointAt: ckptAt,
				})
			}
			// The torn tail targets the sync arm only: a fired wedge syncs
			// the corrupted tail (and everything buffered before it), which
			// would hand the deferred arm durability it never asked for and
			// blur the checkpoint-coverage signal.
			sync, err := runArm(1, torn)
			if err != nil {
				return CrashSweepResult{}, nil, err
			}
			deferred, err := runArm(-1, false)
			if err != nil {
				return CrashSweepResult{}, nil, err
			}
			p.Acked += sync.Acked
			p.Recovered += int(sync.Recovered)
			p.DeferredAcked += deferred.Acked
			p.DeferredRecovered += int(deferred.Recovered)
			p.Checkpoints += sync.Checkpoints
			recSum += sync.RecoveryTime
			replaySum += sync.Replayed
			if torn {
				p.TornTrials++
				p.TruncatedBytes += sync.TruncatedBytes
			}
		}
		if p.Acked > 0 {
			p.Survival = float64(p.Recovered) / float64(p.Acked)
		}
		if p.DeferredAcked > 0 {
			p.DeferredSurvival = float64(p.DeferredRecovered) / float64(p.DeferredAcked)
		}
		p.MeanRecovery = recSum / time.Duration(trials)
		p.MeanReplay = float64(replaySum) / float64(trials)
		res.Points = append(res.Points, p)
		var ckpt any = every
		if every == 0 {
			ckpt = "none"
		}
		t.row(ckpt, trials, p.Survival*100, p.DeferredSurvival*100, p.MeanRecovery, p.MeanReplay,
			p.Checkpoints, p.TornTrials, p.TruncatedBytes)
	}
	return res, t, nil
}
