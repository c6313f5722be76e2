package ingest

import (
	"context"
	"testing"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/wal"
)

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
		apply(t, c, lc, m)
	}
	if err := c.Split(); err != nil {
		t.Fatal(err)
	}
	for _, m := range script[15:] {
		apply(t, c, lc, m)
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
	checkLiveParity(t, r, lc, queryLog(vocab), "post-split-recovery")
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkLiveParity(t, r, lc, queryLog(vocab), "post-split-quiesced")
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
	checkLiveParity(t, r, lc, queryLog(vocab), "wedged-shard-recovery")
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkLiveParity(t, r, lc, queryLog(vocab), "wedged-shard-quiesced")
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
		apply(t, c, lc, m)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, m := range script[20:] {
		apply(t, c, lc, m)
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
	checkLiveParity(t, r, lc, queryLog(vocab), "ckpt-suffix")
}
