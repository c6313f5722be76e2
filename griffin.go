// Package griffin is a pure-Go reproduction of "Griffin: Uniting CPU and
// GPU in Information Retrieval Systems for Intra-Query Parallelism"
// (Liu, Wang, Swanson — PPoPP 2018).
//
// Griffin is a conjunctive-query search engine that schedules the
// operations of a single query — posting-list decompression and pairwise
// list intersection — dynamically between the CPU and a GPU, migrating
// execution from the device to the host as the query's characteristics
// change (the length ratio of the lists being intersected grows as SvS
// intersection proceeds). Because Go has no CUDA path, the GPU is a
// simulated SIMT device: kernels execute functionally in parallel on
// goroutines and report hardware counters that a calibrated timing model
// (Tesla K20 / PCIe 2.0 / Xeon E5-2609v2 constants from the paper's §4.1)
// converts to simulated latencies. See DESIGN.md for the substitution
// argument and EXPERIMENTS.md for paper-vs-measured results.
//
// # Quick start
//
//	b := griffin.NewIndexBuilder()
//	_ = b.AddDocument(0, griffin.Tokenize("the quick brown fox"))
//	_ = b.AddDocument(1, griffin.Tokenize("the lazy dog"))
//	ix, _ := b.Build()
//
//	eng, _ := griffin.NewEngine(ix, griffin.Config{
//		Mode:   griffin.Hybrid,
//		Device: griffin.NewDevice(),
//	})
//	res, _ := eng.Search([]string{"quick", "fox"})
//	for _, d := range res.Docs {
//		fmt.Println(d.DocID, d.Score)
//	}
//
// The package is a thin facade: the implementation lives in internal/
// packages (core, gpu, kernels, ef, pfordelta, index, intersect, rank,
// sched, hwmodel, workload, stats), re-exported here via type aliases so
// downstream users have one import path.
package griffin

import (
	"io"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/rank"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

// Mode selects where a query's operations execute.
type Mode = core.Mode

// Execution modes: the paper's three configurations (§4.4).
const (
	// CPUOnly is the highly optimized CPU baseline.
	CPUOnly = core.CPUOnly
	// GPUOnly is Griffin-GPU standalone.
	GPUOnly = core.GPUOnly
	// Hybrid is Griffin: dynamic intra-query CPU/GPU scheduling.
	Hybrid = core.Hybrid
	// PerQueryHybrid is the static whole-query placement baseline
	// (Figure 1(c); Ding et al., WWW'09).
	PerQueryHybrid = core.PerQueryHybrid
)

// Config parameterizes an engine; see core.Config for field docs.
type Config = core.Config

// Engine executes conjunctive queries against one index.
type Engine = core.Engine

// Request is one query and how to run it (Engine.Query): the terms plus,
// optionally, an explicit arrival on the device timeline, a live-delta
// overlay, and overload options. Engine.Search(terms) is Query with only
// Terms set.
type Request = core.Request

// Result is a completed query: top-k docs plus simulated execution stats.
type Result = core.Result

// QueryStats is the per-query simulated execution record.
type QueryStats = core.QueryStats

// OpTrace records one scheduled intersection of a query (QueryStats.Ops).
type OpTrace = core.OpTrace

// PlanRecord is one executed operator of a query's physical plan
// (QueryStats.Plan): the finer-grained trace beneath OpTrace, covering
// fetches, uploads, decompressions, intersections, migrations, scoring,
// and top-k selection, each with its measured and estimated cost.
type PlanRecord = core.PlanRecord

// ScoredDoc pairs a document with its BM25 relevance score.
type ScoredDoc = kernels.ScoredDoc

// Index is the in-memory inverted index.
type Index = index.Index

// IndexBuilder accumulates documents or raw postings into an Index.
type IndexBuilder = index.Builder

// Device is the simulated GPU.
type Device = gpu.Device

// SchedulerPolicy decides per-intersection CPU/GPU placement.
type SchedulerPolicy = sched.Policy

// RatioPolicy is the paper's threshold scheduler (crossover 128, sticky
// migration).
type RatioPolicy = sched.RatioPolicy

// CostPolicy schedules by explicit cost estimation under the hardware
// models instead of the fixed ratio threshold.
type CostPolicy = sched.CostPolicy

// BM25Params are the ranking model's free parameters.
type BM25Params = rank.BM25Params

// NewEngine builds a query engine over an index.
func NewEngine(ix *Index, cfg Config) (*Engine, error) {
	return core.New(ix, cfg)
}

// NewDevice returns a simulated GPU with the paper's Tesla K20
// calibration, executing kernels at full host parallelism.
func NewDevice() *Device {
	return gpu.New(hwmodel.DefaultGPU(), 0)
}

// NewIndexBuilder returns a builder producing Elias-Fano-compressed
// posting lists (Griffin's codec).
func NewIndexBuilder() *IndexBuilder {
	return index.NewBuilder(index.CodecEF)
}

// Tokenize splits text into lowercase terms with the library's minimal
// analyzer.
func Tokenize(text string) []string {
	return index.Tokenize(text)
}

// WriteIndex serializes an index to w in the library's binary format.
func WriteIndex(ix *Index, w io.Writer) error {
	_, err := ix.WriteTo(w)
	return err
}

// ReadIndex deserializes an index written by WriteIndex.
func ReadIndex(r io.Reader) (*Index, error) {
	return index.ReadIndex(r)
}

// OpenIndex loads an index file written by WriteIndex in place: the file
// is mapped read-only and the posting lists are views into it, so
// opening costs neither a decode nor a heap copy. The mapping lives for
// the rest of the process (see index.Open).
func OpenIndex(path string) (*Index, error) {
	return index.Open(path)
}

// CorpusSpec parameterizes synthetic corpus generation (the ClueWeb12
// stand-in of §4.2).
type CorpusSpec = workload.CorpusSpec

// Corpus is a generated synthetic collection.
type Corpus = workload.Corpus

// Query is one synthetic search request.
type Query = workload.Query

// QuerySpec parameterizes query-log synthesis (the TREC stand-in).
type QuerySpec = workload.QuerySpec

// GenerateCorpus builds a synthetic inverted index whose list-size
// distribution matches the paper's Figure 10.
func GenerateCorpus(spec CorpusSpec) (*Corpus, error) {
	return workload.GenerateCorpus(spec)
}

// GenerateQueryLog synthesizes queries whose term-count distribution
// matches the paper's Figure 11.
func GenerateQueryLog(c *Corpus, spec QuerySpec) []Query {
	return workload.GenerateQueryLog(c, spec)
}

// DefaultCorpusSpec returns a laptop-scale corpus specification.
func DefaultCorpusSpec() CorpusSpec { return workload.DefaultCorpusSpec() }

// DefaultQuerySpec matches the paper's 10K-query log.
func DefaultQuerySpec() QuerySpec { return workload.DefaultQuerySpec() }

// Cluster serves one corpus scatter-gather over document-partitioned
// shards, each shard a full engine with a private simulated device.
// Results are byte-identical to a single engine over the unpartitioned
// corpus; see docs/cluster.md.
type Cluster = cluster.Cluster

// ClusterConfig parameterizes a Cluster (replicas, routing, per-shard
// engine template, shard timeout).
type ClusterConfig = cluster.Config

// ClusterRequest is one scatter-gather query and how to run it
// (Cluster.Query): the cluster-level counterpart of Request.
type ClusterRequest = cluster.Request

// ClusterStats is one scatter-gather query's execution record: critical
// path, merge cost, and per-shard outcomes including degradation.
type ClusterStats = cluster.Stats

// Routing selects the replica-routing policy.
type Routing = cluster.Routing

// Replica routing policies.
const (
	RoundRobin   = cluster.RoundRobin
	LeastPending = cluster.LeastPending
)

// PartitionIndex document-partitions an index into shards (d mod n),
// preserving global collection statistics so shard engines score
// identically to the unpartitioned engine.
func PartitionIndex(ix *Index, shards int) ([]*Index, error) {
	return workload.PartitionIndex(ix, shards)
}

// NewCluster builds a cluster over one index per shard (typically the
// output of PartitionIndex).
func NewCluster(ixs []*Index, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(ixs, cfg)
}
