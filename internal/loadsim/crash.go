package loadsim

import (
	"fmt"
	"sort"
	"time"

	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/ingest"
)

// CrashSpec parameterizes one seeded crash-recovery trial over a durable
// live engine.
type CrashSpec struct {
	// Config is the durable engine configuration. WALDir must be set —
	// RunCrash is meaningless without a log to recover — and Fault may
	// carry an injected storage-fault plan (torn appends, short syncs)
	// so the crash lands on a corrupted tail.
	Config ingest.Config
	// CrashAfter is how many scripted mutations to attempt before the
	// simulated kill -9. Mutations refused by an injected storage fault
	// count as rejected, not acknowledged; script entries invalidated by
	// an earlier rejection (an update of a document whose add was
	// refused) are skipped.
	CrashAfter int
	// CheckpointAt lists mutation counts after which a checkpoint is
	// committed. Checkpoints are skipped once the log wedges.
	CheckpointAt []int
}

// CrashResult measures one crash → recover cycle.
type CrashResult struct {
	// Acked counts mutations the engine acknowledged before the crash;
	// Rejected the ones an injected storage fault refused.
	Acked    int
	Rejected int
	// Recovered is the generation the reopened engine recovered to —
	// equal to Acked exactly when every acknowledged write survived.
	Recovered uint64
	// Replayed is the WAL suffix length recovery replayed past the
	// newest usable checkpoint's watermark.
	Replayed int64
	// Checkpoints counts checkpoints committed before the crash;
	// TruncatedBytes the torn tail bytes recovery discarded.
	Checkpoints    int64
	TruncatedBytes int64
	// RecoveryTime is the wall-clock cost of reopening the crashed
	// directory: manifest + checkpoint load plus the suffix replay.
	RecoveryTime time.Duration
}

// RunCrash drives a durable live engine through a scripted mutation
// prefix, kills it without flushing (Cluster.Crash — the unsynced tail
// vanishes), reopens the directory, and reports what survived and how
// long recovery took. The reopened engine is verified against the
// acknowledged count and closed before returning.
func RunCrash(seed *index.Index, muts []Mutation, spec CrashSpec) (CrashResult, error) {
	if spec.Config.WALDir == "" {
		return CrashResult{}, fmt.Errorf("loadsim: RunCrash needs Config.WALDir")
	}
	n := spec.CrashAfter
	if n > len(muts) {
		n = len(muts)
	}
	e, err := ingest.Open(seed, spec.Config)
	if err != nil {
		return CrashResult{}, err
	}
	var res CrashResult
	ckpt := append([]int(nil), spec.CheckpointAt...)
	sort.Ints(ckpt)
	for i := 0; i < n; i++ {
		m := muts[i]
		err := e.Apply(m.Op, m.DocID, m.Tokens)
		switch {
		case err == nil:
			res.Acked++
		case fault.IsStorageFault(err):
			res.Rejected++
		case ingest.IsInvalid(err):
			// A dependent of an earlier rejected mutation; skip.
		default:
			e.Close()
			return res, err
		}
		for len(ckpt) > 0 && ckpt[0] == i+1 {
			ckpt = ckpt[1:]
			if e.Wedged() != nil {
				continue // a wedged log cannot sync a checkpoint's range
			}
			if err := e.Checkpoint(); err != nil {
				e.Close()
				return res, err
			}
		}
	}
	if st := e.Stats(); st.WAL != nil {
		res.Checkpoints = st.WAL.Checkpoints
	}
	e.Crash()

	rcfg := spec.Config
	rcfg.Fault = nil
	start := time.Now()
	r, err := ingest.Open(seed, rcfg)
	if err != nil {
		return res, err
	}
	res.RecoveryTime = time.Since(start)
	res.Recovered = r.Gen()
	if st := r.Stats(); st.WAL != nil {
		res.Replayed = st.WAL.RecoveredRecords
		res.TruncatedBytes = st.WAL.TruncatedBytes
	}
	if res.Recovered > uint64(res.Acked) {
		r.Close()
		return res, fmt.Errorf("loadsim: recovery resurrected %d generations beyond the %d acknowledged",
			res.Recovered-uint64(res.Acked), res.Acked)
	}
	r.Close()
	return res, nil
}
