package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"griffin/internal/exec"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/wal"
)

// ErrClosed is returned by mutations, merges, and queries issued after
// Close.
var ErrClosed = errors.New("ingest: engine closed")

// writer is the write path of the live cluster, apart from its topology:
// validation, the durability barrier, record construction, the running
// collection statistics, the mutation and merge counters, the background
// merge / split / checkpoint triggers, the abort→retry loop, the modeled
// price of a merge, the commit gate a merged segment is swapped in under,
// and the WAL handle with its checkpoint cadence.
type writer struct {
	// cfg holds the knobs with their defaults resolved (open).
	cfg Config
	cpu hwmodel.CPUModel

	// gate is the commit gate: queries hold it shared for their whole
	// execution; segment swaps (cluster.ReplaceShard) and topology changes
	// hold it exclusive. That pairs each query's frozen views with the
	// segments they shadow — a swap never tears an in-flight query — at
	// the price of a merge commit waiting for the reads in flight.
	gate sync.RWMutex

	// mu is the writer lock: mutations, freezes, and merge commits (taken
	// after the gate). Reads never take it while they run.
	mu sync.Mutex
	// stats are the live collection statistics at the writer's current
	// generation, guarded by mu.
	stats corpusStats

	// mergeMu serializes merges, rebuilds and checkpoints (which fold the
	// delta through the same path); the flags admit one background run of
	// each kind at a time.
	mergeMu   sync.Mutex
	merging   atomic.Bool
	splitting atomic.Bool
	ckpting   atomic.Bool
	bg        sync.WaitGroup
	closing   atomic.Bool

	// merge, split and checkpoint are the cluster's background work, bound
	// once at construction (a method value taken per mutation would
	// allocate per mutation).
	merge      func(shard int) error
	split      func(shards int) error
	checkpoint func() error

	// store is the write-ahead log; nil without a WAL directory — every
	// wal.Store method is a no-op on nil, which is the in-memory engine.
	store     *wal.Store
	sinceCkpt atomic.Int64

	statsMu sync.Mutex
	st      Stats
}

// open resolves cfg's defaults and, with a WAL directory, opens the log
// and recovers it. It returns the segment to build on — the newest valid
// checkpoint, else the seed — and what to replay over it (nothing without
// a WAL), and starts the running statistics from that segment.
func (w *writer) open(seed *index.Index, cfg Config, shards int) (*index.Index, *wal.Recovered, error) {
	w.cfg, w.cpu = cfg, cfg.Engine.CPU
	if w.cpu == (hwmodel.CPUModel{}) {
		w.cpu = hwmodel.DefaultCPU()
	}
	rec := &wal.Recovered{}
	if cfg.WALDir != "" {
		// 0 (unset) is the durable default of syncing every append;
		// negative syncs only at checkpoints, explicit syncs, and close.
		syncEvery := cfg.WALSyncEvery
		switch {
		case syncEvery == 0:
			syncEvery = 1
		case syncEvery < 0:
			syncEvery = 0
		}
		var err error
		w.store, rec, err = wal.Open(cfg.WALDir, wal.Options{
			Shards:    shards,
			SyncEvery: syncEvery,
			Site:      site,
			Fault:     cfg.Fault,
		})
		if err != nil {
			return nil, nil, err
		}
		if rec.Checkpoint != nil {
			seed = rec.Checkpoint
		}
	}
	w.stats = statsOf(seed.DocLens)
	return seed, rec, nil
}

// admit is a mutation's way in, under the writer lock: validate it
// against the document's liveness, put it on the shard's log, and return
// its record for the cluster to apply. An error means nothing happened.
func (w *writer) admit(op wal.Op, docID uint32, tokens []string, live bool, shard int, gen uint64) (*docRecord, error) {
	if w.closing.Load() {
		return nil, ErrClosed
	}
	if op == wal.OpDelete {
		tokens = nil
	}
	if err := check(op, docID, tokens, live); err != nil {
		return nil, err
	}
	// Durability barrier: the record must be on the log before the
	// mutation is acknowledged. A failed append (storage fault, wedged
	// log) leaves the in-memory state untouched and the caller sees the
	// error — the mutation never happened.
	if err := w.store.Append(shard, wal.Record{Gen: gen, Op: op, DocID: docID, Tokens: tokens}); err != nil {
		return nil, err
	}
	return newRecord(op, gen, tokens), nil
}

// check is what Add, Update and Delete refuse. WAL replay bypasses it on
// purpose: a record was validated when acknowledged, and re-validating
// against a partially rebuilt state would reject legitimate history.
func check(op wal.Op, docID uint32, tokens []string, live bool) error {
	switch {
	case op < wal.OpAdd || op > wal.OpDelete:
		return mutErrf("ingest: doc %d: unknown op %d", docID, op)
	case op != wal.OpDelete && len(tokens) == 0:
		return mutErrf("ingest: %s doc %d: empty document", op, docID)
	case op == wal.OpAdd && live:
		return mutErrf("ingest: add doc %d: already exists (use update)", docID)
	case op == wal.OpDelete && !live:
		return mutErrf("ingest: delete doc %d: not found", docID)
	}
	return nil
}

// newRecord builds the delta record of one mutation at generation gen: a
// tombstone for a delete — recovery never resurrects a deleted document
// by "fixing up" its record — a whole new version otherwise.
func newRecord(op wal.Op, gen uint64, tokens []string) *docRecord {
	rec := &docRecord{gen: gen, deleted: op == wal.OpDelete}
	if !rec.deleted {
		rec.tf, rec.length = tokenCounts(tokens)
	}
	return rec
}

// accepted counts one applied mutation and starts the background work it
// made due. pending is the size of the delta it landed in (on shard);
// splitTo is the shard count to split into when it pushed its shard over
// the split watermark, 0 otherwise. A split takes the place of the merge
// only if it actually started — with one already in flight the mutation
// falls through to the merge trigger. The checkpoint cadence advances
// once per mutation, checkpoint in flight or not.
func (w *writer) accepted(op wal.Op, pending, shard, splitTo int) {
	w.statsMu.Lock()
	switch op {
	case wal.OpAdd:
		w.st.Adds++
	case wal.OpUpdate:
		w.st.Updates++
	case wal.OpDelete:
		w.st.Deletes++
	}
	w.statsMu.Unlock()

	switch {
	case splitTo > 0 && w.begin(&w.splitting):
		go w.run(&w.splitting, func() { _ = w.split(splitTo) })
	case w.cfg.AutoMerge && w.cfg.MergeThreshold > 0 && pending >= w.cfg.MergeThreshold && w.begin(&w.merging):
		// Failure is surfaced via Stats.Aborts; the delta stays intact.
		go w.run(&w.merging, func() { _ = w.merge(shard) })
	}
	if w.store != nil && w.cfg.CheckpointEvery > 0 &&
		w.sinceCkpt.Add(1) >= int64(w.cfg.CheckpointEvery) && w.begin(&w.ckpting) {
		// Failure keeps the WAL authoritative.
		go w.run(&w.ckpting, func() { _ = w.checkpoint() })
	}
}

// begin claims a background slot: false once closing, or while the
// slot's previous run is still going.
func (w *writer) begin(slot *atomic.Bool) bool {
	if w.closing.Load() || !slot.CompareAndSwap(false, true) {
		return false
	}
	w.bg.Add(1)
	return true
}

// run does the work a claimed slot was claimed for and frees the slot.
// It is apart from begin so that the closure handed to it is only built
// once the claim succeeded.
func (w *writer) run(slot *atomic.Bool, work func()) {
	defer w.bg.Done()
	defer slot.Store(false)
	work()
}

// stop ends background work: nothing new starts and what is running is
// waited for. The front half of Close (after a Sync) and of Crash.
func (w *writer) stop() {
	w.closing.Store(true)
	w.bg.Wait()
}

// serial runs work with merges, rebuilds and checkpoints excluded.
func (w *writer) serial(work func() error) error {
	w.mergeMu.Lock()
	defer w.mergeMu.Unlock()
	if w.closing.Load() {
		return ErrClosed
	}
	return work()
}

// retry is the abort→retry loop around one merge attempt: an attempt
// killed by an injected fault is counted and tried again, up to the
// configured budget; a hard internal error surfaces at once.
func (w *writer) retry(once func() error) error {
	var err error
	for i := 0; i <= mergeRetries; i++ {
		if err = once(); err == nil || !injected(err) {
			return err
		}
		w.statsMu.Lock()
		w.st.Aborts++
		w.statsMu.Unlock()
	}
	return err
}

// injected reports whether a merge failure came from the fault injector
// (abort→retry) rather than a hard internal error.
func injected(err error) bool {
	return fault.IsDeviceFault(err) || fault.IsEngineFault(err)
}

// mergeCost is the simulated time one merge spent re-encoding on the
// shared device timelines, encoding on the CPU, and stalled by an
// injected admission fault.
type mergeCost struct{ device, cpu, stall time.Duration }

// prepare is the part of one merge attempt that does not depend on where
// the segment goes, in the order seeded fault streams replay: the
// admission draw at site (an ERR rule aborts the attempt before any work,
// a STALL rule delays it), then the splice, then the device submissions.
//
// Changed lists pay the device path — upload the old compressed blocks,
// Para-EF decompress, migrate the expansion back — through the node's
// *shared* runtime, so merge work occupies the same copy/compute lanes
// queries use (interference both ways) and passes the per-device fault
// hooks (a device fault aborts the merge). Unchanged lists are
// segment-copied for free. Encoding itself is host work, billed on the
// CPU model.
func (w *writer) prepare(site string, node *gpu.NodeRuntime, main *index.Index, v *View, arrival time.Duration, timed bool) (*mergePlan, mergeCost, error) {
	var cost mergeCost
	var err error
	if cost.stall, err = w.cfg.Fault.AdmitQuery(site, arrival); err != nil {
		return nil, cost, err
	}
	plan, err := planMerge(main, v)
	if err != nil {
		return nil, cost, fmt.Errorf("ingest: merge build (%s): %w", site, err)
	}
	if node != nil && len(plan.changed) > 0 {
		h, err := node.AdmitOnWith(0, gpu.Admission{Arrival: arrival, Timed: timed})
		if err != nil {
			return nil, cost, err
		}
		gm := node.Model()
		for _, ch := range plan.changed {
			if err := priceChanged(h, &w.cpu, gm, ch); err != nil {
				h.Release()
				return nil, cost, err
			}
		}
		cost.device = h.Elapsed()
		h.Release()
	}
	for _, ch := range plan.changed {
		cost.cpu += w.cpu.Time(hwmodel.CPUWork{
			EFDecodedElems: int64(ch.merged),
			MergedElements: int64(ch.oldN + ch.merged),
		})
	}
	return plan, cost, nil
}

// priceChanged bills one re-encoded list's device path on the shared
// runtime: upload the old compressed blocks, decompress, migrate the
// merged expansion back to the host. The three steps feed each other, so
// the host joins the streams after each one: a list's path is serial even
// though it crosses all three engines. Each submission passes the
// device's fault hook, so an injected device fault aborts the merge.
func priceChanged(h *gpu.QueryStream, cpuM *hwmodel.CPUModel, gm *hwmodel.GPUModel, ch changedList) error {
	type step struct {
		class gpu.EngineClass
		op    exec.Op
	}
	var steps []step
	if ch.old != nil {
		steps = append(steps,
			step{gpu.CopyEngine, exec.Op{Kind: exec.OpUpload, Arg: exec.ListOperand(ch.old)}},
			step{gpu.ComputeEngine, exec.Op{Kind: exec.OpDecompress, Arg: exec.ListOperand(ch.old), LongLen: ch.oldN}},
		)
	} else {
		steps = append(steps,
			step{gpu.CopyEngine, exec.Op{Kind: exec.OpUpload, ShortLen: ch.merged}},
		)
	}
	steps = append(steps, step{gpu.CopyOutEngine, exec.Op{Kind: exec.OpMigrate, ShortLen: ch.merged}})
	for _, s := range steps {
		est := s.op.Estimate(cpuM, gm)
		if err := h.Submit(s.class, func(st *gpu.Stream) error {
			st.AddTime(est)
			return nil
		}); err != nil {
			return err
		}
		h.Streams().Join()
	}
	return nil
}

// merged counts one committed merge of view v.
func (w *writer) merged(v *View, cost mergeCost) {
	w.statsMu.Lock()
	w.st.Merges++
	w.st.MergedGen = max(w.st.MergedGen, v.gen)
	w.st.MergedDocs += int64(v.Docs())
	w.st.MergeDevice += cost.device
	w.st.MergeCPU += cost.cpu
	w.st.MergeStall += cost.stall
	w.statsMu.Unlock()
}

// persist writes a checkpoint of ix covering every generation up to
// watermark and restarts the cadence. Unsynced appends must be durable
// before the checkpoint claims to cover their generations, so the sync
// comes first.
func (w *writer) persist(ix *index.Index, watermark uint64) error {
	if err := w.store.Sync(); err != nil {
		return err
	}
	if err := w.store.Checkpoint(ix, watermark); err != nil {
		return err
	}
	w.sinceCkpt.Store(0)
	return nil
}

// counters returns the mutation, merge and WAL counters; the cluster adds
// its generation and what is pending in its delta(s).
func (w *writer) counters() Stats {
	w.statsMu.Lock()
	st := w.st
	w.statsMu.Unlock()
	if w.store != nil {
		ws := w.store.Stats()
		st.WAL = &ws
	}
	return st
}

// Wedged returns the storage fault that wedged the WAL (any shard's log),
// or nil. A wedged cluster rejects the mutations routed to the wedged log
// (reads still serve) — the degraded-health condition /healthz surfaces.
func (w *writer) Wedged() error { return w.store.Wedged() }
