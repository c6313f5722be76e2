package exec

import (
	"context"
	"fmt"
	"time"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/intersect"
	"griffin/internal/kernels"
	"griffin/internal/rank"
	"griffin/internal/sched"
)

// Fetch is one term lookup feeding a query plan. List is nil when the
// term is absent from the index (the conjunction is then empty).
type Fetch struct {
	Term string
	List *index.PostingList
}

// DeviceList is a ListProvider's answer: a device buffer holding a
// posting list's compressed form.
type DeviceList struct {
	Buf *gpu.Buffer
	// Release drops the provider's reference at query end. When nil the
	// executor owns the buffer and frees it itself.
	Release func()
	// Uploaded reports whether the call paid a host PCIe transfer (false
	// on a cache hit or a peer copy).
	Uploaded bool
	// Peer reports that the list was copied over the inter-device
	// interconnect from a sibling device's cache instead of re-uploaded
	// from the host (multi-GPU nodes only).
	Peer bool
}

// ListProvider supplies device-resident compressed posting lists to
// cacheable Upload operators, letting the engine interpose its bounded
// resident-list cache without the executor knowing about eviction. dev
// is the querying stream's device ordinal within its node, so a
// per-device cache serves (and fills) the right device's residency.
type ListProvider interface {
	DeviceCompressed(s *gpu.Stream, dev int, pl *index.PostingList) (DeviceList, error)
}

// directUpload is the cache-less provider: every upload pays PCIe.
type directUpload struct{}

func (directUpload) DeviceCompressed(s *gpu.Stream, _ int, pl *index.PostingList) (DeviceList, error) {
	comp, err := kernels.UploadEF(s, pl.EF)
	if err != nil {
		return DeviceList{}, err
	}
	return DeviceList{Buf: comp, Uploaded: true}, nil
}

// CandidateScorer ranks the surviving candidates. rank.Scorer is the
// frozen-corpus implementation; a live-ingestion overlay substitutes a
// scorer that evaluates the same BM25 arithmetic against the query's
// pinned (main segment, delta generation) statistics, so concurrent
// mutations never tear a score. lists are the fetched main-segment
// posting lists in fetch order (missing terms skipped); an overlay
// scorer that tracks the query's terms itself may ignore them.
type CandidateScorer interface {
	ScoreCandidates(lists []*index.PostingList, candidates []uint32) ([]kernels.ScoredDoc, hwmodel.CPUWork)
}

// DeltaView is an immutable snapshot of a delta index (live ingestion),
// pinned by one query for its whole execution. The executor consults it
// after the main-segment plan: documents the delta supersedes are
// dropped from the intersection and the delta's own qualifying
// documents are merged in (the OpDeltaScan operator).
type DeltaView interface {
	// Empty reports whether the view holds no mutations at all; the
	// executor then skips the delta scan and the plan is byte-identical
	// to a frozen-corpus run.
	Empty() bool
	// Reconcile filters main-segment candidates the delta supersedes and
	// unions in the delta's own documents containing every query term.
	// Both input and output are ascending docID slices; work is the
	// billable host cost.
	Reconcile(main []uint32, terms []string) (merged []uint32, work hwmodel.CPUWork)
}

// Overlay bundles a pinned delta view with the scorer evaluating its
// snapshot's collection statistics — what a live-ingestion engine
// threads into each query.
type Overlay struct {
	Delta  DeltaView
	Scorer CandidateScorer
}

// Context is the shared execution context one executor run needs: the
// hardware models pricing the simulated timeline, the device (nil for
// pure-CPU plans), the list provider, and the ranking configuration.
type Context struct {
	// Ctx, when non-nil, is checked between operators: a cancelled
	// context aborts the run with its error. Cluster queries thread
	// their request context here so a finished (or hedge-won) query
	// stops straggler sub-queries instead of letting them run the plan
	// to completion.
	Ctx context.Context
	// CPU prices host work.
	CPU hwmodel.CPUModel
	// Device is the simulated GPU; may be nil when no builder emits
	// device operators.
	Device *gpu.Device
	// Handle is the query's admission into the shared device runtime.
	// When set, every device operator is submitted through it — occupying
	// the runtime's copy/compute engine queues and getting charged modeled
	// queueing delay behind concurrent queries' work. When nil the query
	// gets private streams with an independent clock (the paper's
	// single-query prototype behaviour).
	Handle *gpu.QueryStream
	// Lists provides device-resident compressed lists to cacheable
	// uploads; nil means upload directly (no cache).
	Lists ListProvider
	// Scorer ranks the surviving candidates (BM25). Frozen-corpus
	// engines pass *rank.Scorer; live-ingestion overlays substitute a
	// snapshot-pinned implementation.
	Scorer CandidateScorer
	// Delta is the query's pinned delta-index view; nil (or an empty
	// view) means a frozen corpus and no delta scan.
	Delta DeltaView
	// SkipThreshold is the CPU merge-vs-skip ratio switch.
	SkipThreshold int
	// TopK is the result count.
	TopK int
	// Window, when set, is the docIDs the queried index owns as a shard of
	// a range partition (index.Index.Window): the final intersection is
	// cut to it before the delta scan and scoring. Its lists' boundary
	// blocks hold postings of the shards beside it, and since every list
	// is clamped alike, cutting the intersection once is exact.
	Window *index.Window
}

// Outcome is a completed plan execution.
type Outcome struct {
	// Docs are the top-k results, descending by score (non-nil).
	Docs []kernels.ScoredDoc
	// Candidates is the final intersection (host-resident).
	Candidates []uint32
	// Stats is the simulated execution record.
	Stats QueryStats
}

// Run executes one query: it prices the term fetches, SvS-orders the
// lists, then walks the plan the builder produces step by step with one
// shared execution context — device-buffer lifetime tracking, the
// simulated timeline, per-operator trace emission — and finishes with
// host-side BM25 scoring and top-k selection. mkBuilder receives the
// SvS-ordered lists and returns the plan builder under the mode's
// placement policy.
//
// Device operators are issued asynchronously, in program order, to one
// in-order stream per engine: uploads to copy-in, kernels to compute,
// migrations to copy-out, each waiting on the events of the buffers it
// reads. The host joins the streams only where it needs a result — before
// each Builder.Next (which reads the intermediate's length), before host
// operators, and at the final drain — so the next list's upload hides
// under the previous list's decompression and a query's device time is
// the critical path through its streams, not the sum of its operators.
//
// Device buffers allocated during the run (and cache references taken by
// uploads) are released when Run returns, success or error.
func Run(ctx *Context, fetches []Fetch, mkBuilder func(ordered []*index.PostingList) Builder) (*Outcome, error) {
	r := &runner{ctx: ctx, env: make(map[*index.PostingList]*devEntry)}
	defer r.cleanup()

	// Fetch: bind each term's posting list, priced as one dictionary probe.
	lists := make([]*index.PostingList, 0, len(fetches))
	missing := false
	for _, f := range fetches {
		n := 0
		if f.List != nil {
			n = f.List.N
			lists = append(lists, f.List)
		} else {
			missing = true
		}
		took := ctx.CPU.Time(hwmodel.CPUWork{CachedProbes: 1})
		r.recordCPU(OpRecord{Kind: OpFetch, Term: f.Term, NOut: n, Took: took, Est: took})
	}

	if !missing && len(lists) > 0 {
		// SvS ordering: ascending by length (§2.1.2).
		views := make([]index.BlockList, len(lists))
		for i, pl := range lists {
			views[i] = index.EFView{L: pl.EF}
		}
		order := intersect.OrderByLength(views)
		ordered := make([]*index.PostingList, len(order))
		for i, oi := range order {
			ordered[i] = lists[oi]
		}
		r.lists = ordered

		b := mkBuilder(ordered)
		for {
			r.settle() // the builder reads the intermediate's length
			ops := b.Next(State{Len: r.stateLen(), OnDevice: r.onDevice})
			if ops == nil {
				break
			}
			for i := range ops {
				if ctx.Ctx != nil {
					if err := ctx.Ctx.Err(); err != nil {
						return nil, err
					}
				}
				if err := r.exec(&ops[i]); err != nil {
					return nil, err
				}
			}
		}
	}

	if ctx.Window != nil {
		lo, hi := ctx.Window.Span(r.hostIDs)
		r.hostIDs = r.hostIDs[lo:hi]
	}

	// Delta scan: reconcile the main-segment intersection with the
	// query's pinned delta view (live ingestion). Superseded documents
	// (tombstoned or updated in the delta) drop out; delta documents
	// containing every query term merge in. Runs even when a term is
	// missing from the main segment — the delta may still hold matching
	// documents — and is skipped entirely for empty views, keeping
	// frozen-corpus plans byte-identical.
	if ctx.Delta != nil && !ctx.Delta.Empty() {
		terms := make([]string, len(fetches))
		for i, f := range fetches {
			terms[i] = f.Term
		}
		base := len(r.hostIDs)
		merged, work := ctx.Delta.Reconcile(r.hostIDs, terms)
		est := (&Op{Kind: OpDeltaScan, ShortLen: base, LongLen: len(merged)}).Estimate(&ctx.CPU, r.gpuModel())
		r.hostIDs = merged
		r.onDevice = false
		r.recordCPU(OpRecord{Kind: OpDeltaScan, NIn: base, NOut: len(merged), Took: ctx.CPU.Time(work), Est: est})
	}

	// Rank: BM25 over the candidates, then the CPU partial sort (the
	// Figure-7-justified choice). Scoring iterates the lists in lookup
	// order so float accumulation is bit-stable across modes.
	docs := []kernels.ScoredDoc{}
	if len(r.hostIDs) > 0 {
		est := (&Op{Kind: OpScore, ShortLen: len(r.hostIDs), LongLen: len(lists)}).Estimate(&ctx.CPU, r.gpuModel())
		scored, work := ctx.Scorer.ScoreCandidates(lists, r.hostIDs)
		r.recordCPU(OpRecord{Kind: OpScore, NIn: len(r.hostIDs), NOut: len(scored), Took: ctx.CPU.Time(work), Est: est})

		est = (&Op{Kind: OpTopK, ShortLen: len(scored)}).Estimate(&ctx.CPU, r.gpuModel())
		top, tkWork := rank.TopKCPU(scored, ctx.TopK)
		r.recordCPU(OpRecord{Kind: OpTopK, NIn: len(scored), NOut: len(top), Took: ctx.CPU.Time(tkWork), Est: est})
		docs = append(docs, top...)
	}

	r.stats.Candidates = len(r.hostIDs)
	if ctx.Handle != nil {
		r.stats.GPUWait = ctx.Handle.Waited()
	}
	r.stats.Overlapped = r.gpuOpTime - r.stats.GPUTime
	r.stats.Latency = r.stats.CPUTime + r.stats.GPUTime
	return &Outcome{Docs: docs, Candidates: r.hostIDs, Stats: r.stats}, nil
}

// devEntry tracks one posting list's device-resident forms, each with the
// event that signals when its producer has finished.
type devEntry struct {
	comp, dec           *gpu.Buffer
	compReady, decReady gpu.Event
}

// runner is the executor's per-query state: the running intermediate
// (host slice or device IntersectResult), device-buffer ownership, and
// the device clock at the last join, from which GPUTime advances.
type runner struct {
	ctx     *Context
	streams *gpu.StreamSet
	lists   []*index.PostingList
	stats   QueryStats

	hostIDs  []uint32                 // intermediate when on host
	devRes   *kernels.IntersectResult // intermediate when on device
	resReady gpu.Event                // signals devRes
	onDevice bool
	started  bool // true once the first intersection produced an intermediate

	env       map[*index.PostingList]*devEntry
	owned     []*gpu.Buffer // buffers to free at query end
	releases  []func()      // cache references to drop at query end
	last      time.Duration // device clock at the last join
	gpuOpTime time.Duration // sum of the device operators' own Took
}

func (r *runner) cleanup() {
	for _, b := range r.owned {
		b.Free()
	}
	r.owned = nil
	for _, rel := range r.releases {
		rel()
	}
	r.releases = nil
}

func (r *runner) track(b *gpu.Buffer) *gpu.Buffer {
	r.owned = append(r.owned, b)
	return b
}

func (r *runner) record(rec OpRecord) {
	r.stats.Plan = append(r.stats.Plan, rec)
}

// recordCPU bills one host operator: the host is a single thread that has
// waited for the device before it computes, so the operator starts at the
// joined device clock plus the host time spent so far.
func (r *runner) recordCPU(rec OpRecord) {
	rec.Where = sched.CPU
	rec.Start = r.stats.CPUTime + r.settle()
	r.stats.CPUTime += rec.Took
	r.record(rec)
}

// stateLen is the Builder-visible intermediate length: the shortest
// list's length before the first intersection, the running result after.
func (r *runner) stateLen() int {
	switch {
	case !r.started:
		if len(r.lists) > 0 {
			return r.lists[0].N
		}
		return 0
	case r.onDevice:
		return r.devRes.Count
	default:
		return len(r.hostIDs)
	}
}

// submitDevice issues one device operator to the query's stream for the
// given engine, after making that stream wait for deps, the events of the
// buffers the operator reads. With a runtime handle the item goes through
// the shared device: it occupies the engine's queue on the global
// timeline and the stream is charged queueing delay first when the engine
// is busy with other queries' work; the operator's batch key lets the
// runtime's batching stage coalesce it with compatible ops from
// concurrent queries. Without a handle it runs directly on the private
// stream (no cross-query contention, never batched). rec receives the
// operator's start on the query's timeline, its own service time and its
// batch membership; the returned event signals the operator's completion.
func (r *runner) submitDevice(class gpu.EngineClass, op *Op, rec *OpRecord, fn func(*gpu.Stream) error, deps ...gpu.Event) (gpu.Event, error) {
	if r.streams == nil {
		switch {
		case r.ctx.Handle != nil:
			r.streams = r.ctx.Handle.Streams()
		case r.ctx.Device != nil:
			r.streams = r.ctx.Device.NewStreamSet()
		default:
			return gpu.Event{}, fmt.Errorf("exec: plan places work on the GPU but the context has no device")
		}
	}
	s := r.streams.On(class)
	for _, e := range deps {
		s.Wait(e)
	}
	start := s.Elapsed()
	var m gpu.Batched
	var err error
	if h := r.ctx.Handle; h != nil {
		m, err = h.SubmitOp(class, op.BatchKey(), fn)
	} else {
		err = fn(s)
	}
	if err != nil {
		return gpu.Event{}, err
	}
	rec.BatchID, rec.BatchSize = m.ID, m.Seq
	rec.Device = r.deviceID()
	rec.Start = r.stats.CPUTime + start
	rec.Took = s.Elapsed() - start
	r.gpuOpTime += rec.Took
	return s.Record(), nil
}

// deviceID is the node-relative ordinal of the device this query was
// placed on (0 without a runtime handle, i.e. private streams or a
// single-device node).
func (r *runner) deviceID() int {
	if r.ctx.Handle != nil {
		return r.ctx.Handle.Device()
	}
	return 0
}

// settle joins the query's streams — the host waits for the device — and
// bills the device clock's advance since the previous join to GPUTime. It
// returns the joined clock.
func (r *runner) settle() time.Duration {
	if r.streams != nil {
		now := r.streams.Join()
		r.stats.GPUTime += now - r.last
		r.last = now
	}
	return r.last
}

func (r *runner) gpuModel() *hwmodel.GPUModel {
	if r.ctx.Device != nil {
		return r.ctx.Device.Model()
	}
	return &fallbackGPU
}

var fallbackGPU = hwmodel.DefaultGPU()

// exec issues one operator, advancing the query's timeline and emitting
// its plan record.
func (r *runner) exec(op *Op) error {
	rec := OpRecord{Kind: op.Kind, Algo: op.Algo, Where: op.Where, Est: op.Estimate(&r.ctx.CPU, r.gpuModel())}

	switch op.Kind {
	case OpUpload:
		if op.Arg.List == nil {
			// Raw intermediate upload (host -> device). The host produced
			// the intermediate after its last join, which every stream's
			// clock is already past.
			var buf *gpu.Buffer
			done, err := r.submitDevice(gpu.CopyEngine, op, &rec, func(s *gpu.Stream) error {
				b, err := s.H2D(r.hostIDs, int64(len(r.hostIDs))*4)
				buf = b
				return err
			})
			if err != nil {
				return err
			}
			r.track(buf)
			r.devRes = &kernels.IntersectResult{Out: buf, Count: len(r.hostIDs)}
			r.resReady = done
			r.onDevice = true
			rec.NIn, rec.NOut = len(r.hostIDs), len(r.hostIDs)
			rec.Bytes = int64(len(r.hostIDs)) * 4
		} else {
			pl := op.Arg.List
			provider := r.ctx.Lists
			if provider == nil || !op.Cacheable {
				provider = directUpload{}
			}
			var dl DeviceList
			done, err := r.submitDevice(gpu.CopyEngine, op, &rec, func(s *gpu.Stream) error {
				var err error
				dl, err = provider.DeviceCompressed(s, r.deviceID(), pl)
				return err
			})
			if err != nil {
				return err
			}
			if dl.Release != nil {
				r.releases = append(r.releases, dl.Release)
			} else {
				r.track(dl.Buf)
			}
			e := r.entry(pl)
			e.comp = dl.Buf
			// A cache hit was resident before the query began: its event
			// stays the zero Event, already signalled.
			if dl.Uploaded || dl.Peer {
				e.compReady = done
				rec.Bytes = pl.EF.CompressedBytes()
			}
			rec.Term = pl.Term
			rec.NIn, rec.NOut = pl.N, pl.N
			rec.Peer = dl.Peer
		}

	case OpDecompress:
		pl := op.Arg.List
		e := r.entry(pl)
		var dec *gpu.Buffer
		done, err := r.submitDevice(gpu.ComputeEngine, op, &rec, func(s *gpu.Stream) error {
			d, _, err := kernels.ParaEFDecompress(s, e.comp)
			dec = d
			return err
		}, e.compReady)
		if err != nil {
			return err
		}
		r.track(dec)
		e.dec, e.decReady = dec, done
		rec.Term = pl.Term
		rec.NIn, rec.NOut = pl.N, pl.N

	case OpIntersect:
		if op.Where == sched.CPU {
			return r.intersectCPU(op, &rec)
		}
		return r.intersectGPU(op, &rec)

	case OpMigrate:
		return r.migrate(op, &rec)

	default:
		return fmt.Errorf("exec: operator %v cannot appear mid-plan", op.Kind)
	}

	r.record(rec)
	return nil
}

// entry returns (creating if needed) the device residency entry for pl.
func (r *runner) entry(pl *index.PostingList) *devEntry {
	e := r.env[pl]
	if e == nil {
		e = &devEntry{}
		r.env[pl] = e
	}
	return e
}

// intersectCPU runs one host intersection: the short side is either a
// posting list (EF view) or the host-resident intermediate (raw view).
func (r *runner) intersectCPU(op *Op, rec *OpRecord) error {
	var short index.BlockList
	if op.Short.List != nil {
		short = index.EFView{L: op.Short.List.EF}
	} else {
		short = index.RawView{IDs: r.hostIDs}
	}
	var step intersect.Result
	if op.Algo == AlgoCPUDecode {
		// Degenerate single-list query: decode the list on the host.
		step = intersect.SvS([]index.BlockList{short}, r.ctx.SkipThreshold)
	} else {
		step = intersect.Pair(short, index.EFView{L: op.Long.List.EF}, r.ctx.SkipThreshold)
	}
	r.hostIDs = step.IDs
	r.onDevice = false
	r.started = true
	rec.NIn, rec.NOut = op.ShortLen, len(step.IDs)
	rec.Took = r.ctx.CPU.Time(step.Work)
	r.recordCPU(*rec)
	return nil
}

// intersectGPU runs one device intersection kernel over the declared
// operands' resident buffers.
func (r *runner) intersectGPU(op *Op, rec *OpRecord) error {
	var shortBuf *gpu.Buffer
	var shortReady gpu.Event
	if op.Short.List != nil {
		e := r.entry(op.Short.List)
		shortBuf, shortReady = e.dec, e.decReady
	} else {
		shortBuf, shortReady = r.devRes.Out, r.resReady
	}
	long := r.entry(op.Long.List)
	longBuf, longReady := long.dec, long.decReady
	if op.Algo == AlgoBinarySkips {
		longBuf, longReady = long.comp, long.compReady
	}
	var out *kernels.IntersectResult
	done, err := r.submitDevice(gpu.ComputeEngine, op, rec, func(s *gpu.Stream) error {
		var err error
		if op.Algo == AlgoBinarySkips {
			out, err = kernels.IntersectBinarySkips(s, shortBuf, longBuf)
		} else {
			out, err = kernels.IntersectMergePath(s, shortBuf, longBuf)
		}
		return err
	}, shortReady, longReady)
	if err != nil {
		return err
	}
	r.track(out.Out)
	r.devRes, r.resReady = out, done
	r.onDevice = true
	r.started = true
	rec.NIn, rec.NOut = op.ShortLen, out.Count
	r.record(*rec)
	// The host reads the match count before it plans the next step.
	r.settle()
	return nil
}

// migrate moves the intermediate device-to-host: the §3.2 mid-query
// migration (sets Migrated), the end-of-plan drain (Final), or the
// single-list decompressed-list drain (Arg.List set).
func (r *runner) migrate(op *Op, rec *OpRecord) error {
	d2h := func(buf *gpu.Buffer, ready gpu.Event, n int) ([]uint32, error) {
		var ids []uint32
		_, err := r.submitDevice(gpu.CopyOutEngine, op, rec, func(s *gpu.Stream) error {
			ids = kernels.IDs(s.D2H(buf, int64(n)*4))[:n]
			return nil
		}, ready)
		rec.Bytes = int64(n) * 4
		return ids, err
	}
	var err error
	switch {
	case op.Arg.List != nil:
		// Drain a decompressed posting list (single-term device plan).
		pl := op.Arg.List
		e := r.entry(pl)
		r.hostIDs, err = d2h(e.dec, e.decReady, pl.N)
		rec.NIn = pl.N
	case op.Final && r.devRes.Count == 0:
		// Nothing to transfer: the drain is a host-side no-op.
		r.hostIDs = []uint32{}
		rec.Device = r.deviceID()
		rec.Start = r.stats.CPUTime + r.settle()
	default:
		// The end-of-plan drain, or a mid-query migration: execution moves
		// to the CPU (§3.2).
		r.hostIDs, err = d2h(r.devRes.Out, r.resReady, r.devRes.Count)
		if !op.Final {
			r.stats.Migrated = true
		}
		rec.NIn = r.devRes.Count
	}
	if err != nil {
		return err
	}
	rec.NOut = len(r.hostIDs)
	r.onDevice = false
	r.started = true
	r.record(*rec)
	// The host consumes the drained intermediate next.
	r.settle()
	return nil
}
