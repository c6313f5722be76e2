package ingest

import (
	"context"
	"fmt"
	"testing"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/wal"
)

func TestOpenClusterWithoutWALDirMatchesNew(t *testing.T) {
	const vocab = 10
	lc := seedCorpus(401, 60, vocab)
	c, err := OpenCluster(lc.build(t, index.CodecEF), ClusterConfig{
		Shards:  2,
		Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.store != nil {
		t.Fatalf("OpenCluster without WALDir attached a store")
	}
	for _, m := range genScript(402, lc.clone(), 20, vocab) {
		applyCluster(t, c, lc, m)
	}
	if st := c.Stats(); st.WAL != nil {
		t.Fatalf("no-WAL cluster exposes a wal stats block: %+v", st.WAL)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on a no-WAL cluster must be a no-op: %v", err)
	}
	if c.Wedged() != nil {
		t.Fatalf("no-WAL cluster reports wedged")
	}
	checkClusterParity(t, c, lc, queryLog(vocab), "no-wal")
}

// TestClusterCrashRecoveryParity is the tentpole invariant at the
// cluster layer: per-shard WALs stitch back into one generation-ordered
// history, and recover → quiesce matches a fresh build over the
// acknowledged prefix at every crash point — including points straddling
// a shard merge and a checkpoint.
func TestClusterCrashRecoveryParity(t *testing.T) {
	const vocab = 14
	base := seedCorpus(411, 90, vocab)
	script := genScript(412, base.clone(), 36, vocab)
	for _, k := range []int{0, 5, 13, 21, len(script)} {
		t.Run(fmt.Sprintf("crash-after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			cfg := ClusterConfig{
				Shards:  2,
				Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
				WALDir:  dir,
			}
			lc := base.clone()
			c, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				applyCluster(t, c, lc, script[i])
				if i == 7 { // a committed shard merge mid-run
					if err := c.MergeShard(0); err != nil {
						t.Fatal(err)
					}
				}
				if i == 12 { // a committed checkpoint mid-run
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.Crash()

			r, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got, _ := r.Progress(); got != uint64(k) {
				t.Fatalf("recovered gen %d, want %d", got, k)
			}
			checkClusterParity(t, r, lc, queryLog(vocab), "recovered-live")
			if err := r.Quiesce(); err != nil {
				t.Fatal(err)
			}
			checkClusterParity(t, r, lc, queryLog(vocab), "recovered-quiesced")
		})
	}
}

// TestClusterSplitRecovery: a split re-partitions into more shards and
// commits the new count to the manifest before the routing swap, so a
// crash after the split — with post-split mutations routed by the new
// topology — recovers at the grown shard count even when the caller's
// config still names the old one.
func TestClusterSplitRecovery(t *testing.T) {
	const vocab = 12
	base := seedCorpus(421, 80, vocab)
	script := genScript(422, base.clone(), 30, vocab)
	dir := t.TempDir()
	cfg := ClusterConfig{
		Shards:  2,
		Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
		WALDir:  dir,
	}
	lc := base.clone()
	c, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range script[:15] {
		applyCluster(t, c, lc, m)
	}
	if err := c.Split(); err != nil {
		t.Fatal(err)
	}
	for _, m := range script[15:] {
		applyCluster(t, c, lc, m)
	}
	if got := c.Stats().Shards; got != 3 {
		t.Fatalf("post-split shards = %d, want 3", got)
	}
	c.Crash()

	// Reopen with the stale 2-shard config: the manifest wins.
	r, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Shards; got != 3 {
		t.Fatalf("recovered shards = %d, want the manifest's 3", got)
	}
	if got, _ := r.Progress(); got != uint64(len(script)) {
		t.Fatalf("recovered gen %d, want %d", got, len(script))
	}
	checkClusterParity(t, r, lc, queryLog(vocab), "post-split-recovery")
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkClusterParity(t, r, lc, queryLog(vocab), "post-split-quiesced")
}

// TestClusterWedgedShardKeepsOthersWritable: a storage fault wedges one
// shard's log — mutations routed there are rejected unacknowledged while
// other shards keep accepting — and the stitched recovery replays the
// full interleaved acknowledged history (gens stay contiguous because a
// failed append consumes no generation).
func TestClusterWedgedShardKeepsOthersWritable(t *testing.T) {
	const vocab = 12
	base := seedCorpus(431, 80, vocab)
	script := genScript(432, base.clone(), 40, vocab)
	dir := t.TempDir()
	inj := fault.NewInjector(fault.Plan{Seed: 11, Rules: []fault.Rule{
		{Kind: fault.TornWrite, Rate: 1, After: 6, Until: 7},
	}})
	cfg := ClusterConfig{
		Shards:  2,
		Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}, Fault: inj},
		WALDir:  dir,
	}
	lc := base.clone()
	c, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acked, rejected int
	for _, m := range script {
		if err := c.Apply(m.kind, m.docID, m.tokens); err != nil {
			switch {
			case fault.IsStorageFault(err):
				rejected++
			case IsInvalid(err):
				// The script was generated assuming every mutation lands;
				// once the wedged shard rejects one, later script entries
				// touching that document fail validation. Skip them — the
				// corpus tracks only what the cluster acknowledged.
			default:
				t.Fatalf("mutation %+v: %v", m, err)
			}
			continue
		}
		acked++
		switch m.kind {
		case wal.OpDelete:
			delete(lc.docs, m.docID)
		default:
			lc.docs[m.docID] = m.tokens
		}
	}
	if rejected == 0 {
		t.Fatalf("fault never fired: all %d mutations acknowledged", len(script))
	}
	if acked == 0 {
		t.Fatalf("both shards wedged: no mutation acknowledged")
	}
	if c.Wedged() == nil {
		t.Fatalf("cluster does not report wedged")
	}
	// Reads still serve on a wedged cluster.
	if _, err := c.Query(context.Background(), cluster.Request{Terms: []string{word(0)}}); err != nil {
		t.Fatalf("read on wedged cluster: %v", err)
	}
	c.Crash()

	rcfg := cfg
	rcfg.Cluster.Fault = nil
	r, err := OpenCluster(base.clone().build(t, index.CodecEF), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, _ := r.Progress(); got != uint64(acked) {
		t.Fatalf("recovered gen %d, want the %d acknowledged", got, acked)
	}
	st := r.Stats()
	if st.WAL == nil || st.WAL.TruncatedBytes == 0 {
		t.Errorf("recovery reported no truncated bytes after torn write: %+v", st.WAL)
	}
	checkClusterParity(t, r, lc, queryLog(vocab), "wedged-shard-recovery")
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkClusterParity(t, r, lc, queryLog(vocab), "wedged-shard-quiesced")
}

// TestClusterCheckpointSuffixReplay: recovery seeds from the checkpoint
// and replays only the WAL suffix past its watermark.
func TestClusterCheckpointSuffixReplay(t *testing.T) {
	const vocab = 12
	base := seedCorpus(441, 70, vocab)
	script := genScript(442, base.clone(), 30, vocab)
	dir := t.TempDir()
	cfg := ClusterConfig{
		Shards:  2,
		Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
		WALDir:  dir,
	}
	lc := base.clone()
	c, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range script[:20] {
		applyCluster(t, c, lc, m)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, m := range script[20:] {
		applyCluster(t, c, lc, m)
	}
	c.Crash()

	r, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.WAL == nil || st.WAL.RecoveredRecords != 10 {
		t.Fatalf("replayed %+v, want a 10-record suffix past the watermark", st.WAL)
	}
	if got, _ := r.Progress(); got != uint64(len(script)) {
		t.Fatalf("recovered gen %d, want %d", got, len(script))
	}
	checkClusterParity(t, r, lc, queryLog(vocab), "ckpt-suffix")
}

// TestClusterCloseDurabilityBarrier: a clean Close syncs every
// acknowledged mutation even under the deferred-sync policy.
func TestClusterCloseDurabilityBarrier(t *testing.T) {
	const vocab = 10
	base := seedCorpus(451, 50, vocab)
	script := genScript(452, base.clone(), 20, vocab)
	dir := t.TempDir()
	cfg := ClusterConfig{
		Shards:  2,
		Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
		WALDir:  dir, WALSyncEvery: -1,
	}
	lc := base.clone()
	c, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range script {
		applyCluster(t, c, lc, m)
	}
	c.Close()

	r, err := OpenCluster(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, _ := r.Progress(); got != uint64(len(script)) {
		t.Fatalf("recovered %d mutations after clean close, want all %d", got, len(script))
	}
	checkClusterParity(t, r, lc, queryLog(vocab), "post-close")
}
