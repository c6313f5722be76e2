package ingest

import (
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/wal"
)

// mergeRetries bounds how many times an aborted merge (injected fault on
// the merge path) is retried before the error surfaces.
const mergeRetries = 3

// site is the fault-site base name of the write path: merge-path draws
// use "ingest.merge" on a one-shard cluster and "ingest.s<s>.merge" for
// shard s otherwise, and the WAL's are named under it too
// (wal.Options.Site).
const site = "ingest"

// Config parameterizes a single-node live engine: a one-shard live
// cluster (New, Open).
type Config struct {
	// Engine is the serving-engine template. Every merged segment is
	// served by the previous engine's Successor, which keeps this
	// template and the device node, so the simulated device timelines,
	// submit hooks, and batching stage survive index swaps. Its Device is
	// not used itself: the shard builds a private device with its model.
	Engine core.Config
	// MergeThreshold is the delta size (records, live + tombstoned) at
	// which a merge becomes due (NeedsMerge / AutoMerge). 0 means merges
	// run only when explicitly requested.
	MergeThreshold int
	// AutoMerge launches a background merge goroutine whenever a
	// mutation pushes the delta past MergeThreshold (the serving-path
	// behaviour; deterministic load studies call MergeAt themselves).
	AutoMerge bool
	// Fault injects write-path faults — merge admission, WAL and
	// checkpoint — and not serving ones (nil = none).
	Fault *fault.Injector
	// WALDir enables durability (Open only): every accepted mutation is
	// appended to a write-ahead log in this directory before it is
	// acknowledged, and startup recovers checkpoint + WAL suffix. Empty
	// disables the WAL entirely — New and Open are then identical.
	WALDir string
	// WALSyncEvery is the fsync cadence in appends: 0 (unset) defaults
	// to 1 — every acknowledged mutation is durable — and negative syncs
	// only at checkpoints and shutdown (fast, loses the unsynced tail on
	// crash).
	WALSyncEvery int
	// CheckpointEvery persists a checkpoint after this many accepted
	// mutations (0 = only explicit Checkpoint calls). Checkpoints bound
	// recovery replay time; between them recovery replays the suffix.
	CheckpointEvery int
}

// Stats is the ingestion telemetry surface (/statz, freshness checks).
type Stats struct {
	// Gen is the writer generation (total mutations accepted);
	// MergedGen is the highest generation covered by a committed merge.
	Gen       uint64 `json:"gen"`
	MergedGen uint64 `json:"merged_gen"`
	// DeltaDocs / Tombstones describe the current delta (records not
	// yet merged). DeltaDocs counts all records, tombstones included —
	// the merge-lag / freshness signal.
	DeltaDocs  int `json:"delta_docs"`
	Tombstones int `json:"tombstones"`
	// Adds/Updates/Deletes count accepted mutations by kind.
	Adds    int64 `json:"adds"`
	Updates int64 `json:"updates"`
	Deletes int64 `json:"deletes"`
	// Merges counts committed merges; Aborts counts merge attempts
	// killed by injected faults (each either retried or surfaced);
	// MergedDocs is the total records folded into main segments.
	Merges     int64 `json:"merges"`
	Aborts     int64 `json:"aborts"`
	MergedDocs int64 `json:"merged_docs"`
	// MergeDevice / MergeCPU / MergeStall are the simulated time merges
	// spent re-encoding on the shared device timelines, encoding on the
	// CPU, and stalled by injected admission faults — the interference
	// the /statz freshness block surfaces.
	MergeDevice time.Duration `json:"merge_device_ns"`
	MergeCPU    time.Duration `json:"merge_cpu_ns"`
	MergeStall  time.Duration `json:"merge_stall_ns"`
	// WAL is the durability telemetry: appends, syncs, checkpoints, and
	// recovery counters. Nil when the engine runs without a write-ahead
	// log, so the /statz body stays byte-identical with durability off.
	WAL *wal.Stats `json:"wal,omitempty"`
}

// Engine is the live cluster under the name the single-node API had. It
// exists only because the serving benchmark (bench/) compiles against
// *ingest.Engine; a single-node live engine is a one-shard Cluster.
type Engine = Cluster

// New builds a single-node live engine over a seed index, in memory:
// cfg.WALDir is ignored. The seed may be empty
// (index.NewBuilder(...).Build() with no documents) to start from a blank
// corpus.
func New(ix *index.Index, cfg Config) (*Cluster, error) {
	cfg.WALDir = ""
	return Open(ix, cfg)
}

// Open builds a single-node live engine — a one-shard live cluster
// serving cfg.Engine, with cfg.Fault on the write path only — and, with
// cfg.WALDir set, recovers it from the directory as OpenCluster does.
// With cfg.WALDir empty, Open is exactly New.
func Open(ix *index.Index, cfg Config) (*Cluster, error) {
	return openCluster(ix, 1, 0, cluster.Config{Engine: cfg.Engine, TopK: cfg.Engine.TopK}, cfg)
}
