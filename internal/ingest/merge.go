package ingest

import (
	"fmt"
	"sort"
	"time"

	"griffin/internal/core"
	"griffin/internal/exec"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
)

// Merge folds the current delta into a freshly re-encoded main segment
// and swaps it in atomically. The old snapshot retires when its last
// pinned query finishes; an aborted merge (injected fault on the merge
// path) leaves the published snapshot untouched — never a torn state —
// and is retried up to the configured budget.
func (e *Engine) Merge() error { return e.merge(0, false) }

// MergeAt is Merge anchored at an explicit simulated arrival time on
// the shared device timeline — the load-study path, where merge
// re-encoding work queues behind (and delays) concurrent queries.
func (e *Engine) MergeAt(arrival time.Duration) error { return e.merge(arrival, true) }

func (e *Engine) merge(arrival time.Duration, timed bool) error {
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	if e.closing.Load() {
		return ErrClosed
	}
	return e.mergeLocked(arrival, timed)
}

// mergeLocked is the abort-retry loop around one merge. Caller holds
// mergeMu (Merge/MergeAt take it themselves; Checkpoint holds it across
// the merge and the checkpoint write so the persisted segment is the
// one the watermark describes).
func (e *Engine) mergeLocked(arrival time.Duration, timed bool) error {
	attempts := e.retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		err = e.mergeOnce(arrival, timed)
		if err == nil {
			return nil
		}
		if !injected(err) {
			return err
		}
		e.statsMu.Lock()
		e.st.Aborts++
		e.statsMu.Unlock()
	}
	return err
}

// injected reports whether a merge failure came from the fault injector
// (abort→retry) rather than a hard internal error.
func injected(err error) bool {
	return fault.IsDeviceFault(err) || fault.IsEngineFault(err)
}

// Quiesce merges until the delta is empty: after it returns (without
// error and with no concurrent writers), every accepted mutation is
// re-encoded into the compressed main segment and queries take the
// frozen-corpus path — byte-identical to a freshly built engine over
// the same logical corpus.
func (e *Engine) Quiesce() error {
	for {
		e.mu.Lock()
		empty := len(e.d.docs) == 0
		e.mu.Unlock()
		if empty {
			return nil
		}
		if err := e.Merge(); err != nil {
			return err
		}
	}
}

// mergeOnce runs one merge attempt: freeze, price, re-encode, swap.
func (e *Engine) mergeOnce(arrival time.Duration, timed bool) error {
	// Pin the segment and freeze a view covering every mutation so far.
	// Mutations landing after this point survive the merge in the delta
	// and correctly shadow the merged segment.
	e.mu.Lock()
	cur := e.snap.Load()
	if cur.view.gen != e.d.gen {
		v := e.d.freeze(cur.seg.st)
		e.snap.Store(newSnapshot(cur.seg, v))
		cur.release()
		cur = e.snap.Load()
	}
	cur.refs.Add(1) // safe under e.mu: swaps hold the writer lock too
	e.mu.Unlock()
	defer cur.release()

	v := cur.view
	if v.Empty() {
		return nil
	}
	main := cur.seg.st.ix
	upto := v.gen

	// Fault site: the merge admission draw ("<site>.merge"). An ERR rule
	// aborts the attempt before any work; a STALL rule delays it.
	var stall time.Duration
	if e.cfg.Fault != nil {
		at := arrival
		s, err := e.cfg.Fault.AdmitQuery(e.site+".merge", at)
		if err != nil {
			return err
		}
		stall = s
	}

	plan, err := planMerge(main, v)
	if err != nil {
		return err
	}

	// Price the re-encode. Changed lists pay the device path — upload the
	// old compressed blocks, Para-EF decompress, migrate the expansion
	// back — through the *shared* node runtime, so merge work occupies
	// the same copy/compute lanes queries use (interference both ways)
	// and passes the per-device fault hooks (a device fault aborts the
	// merge). Unchanged lists are segment-copied for free. Encoding
	// itself is host work, billed on the CPU model.
	var devTime, cpuTime time.Duration
	if node := cur.seg.eng.Node(); node != nil && len(plan.changed) > 0 {
		h, err := node.AdmitOnWith(0, gpu.Admission{Arrival: arrival, Timed: timed})
		if err != nil {
			return err
		}
		gm := node.Model()
		for _, ch := range plan.changed {
			if err := priceChanged(h, &e.cpu, gm, ch); err != nil {
				h.Release()
				return err
			}
		}
		devTime = h.Elapsed()
		h.Release()
	}
	for _, ch := range plan.changed {
		cpuTime += e.cpu.Time(hwmodel.CPUWork{
			EFDecodedElems: int64(ch.merged),
			MergedElements: int64(ch.oldN + ch.merged),
		})
	}

	ix2, err := plan.build(e.codec)
	if err != nil {
		return fmt.Errorf("ingest: merge build: %w", err)
	}

	// The successor engine adopts the node: device timelines, submit
	// hooks, and the batching stage survive the swap, so in-flight
	// queries on the old segment and new arrivals on this one contend
	// for the same modeled devices.
	ncfg := e.cfg.Engine
	ncfg.Node = cur.seg.eng.Node()
	ncfg.Runtime = nil
	if ncfg.Node != nil {
		ncfg.Device = nil
	}
	eng2, err := core.New(ix2, ncfg)
	if err != nil {
		return fmt.Errorf("ingest: merge engine: %w", err)
	}

	// Commit: drop covered records, publish the (new segment, residual
	// delta) snapshot, retire the old one. mergeMu guarantees cur.seg is
	// still the live segment.
	e.mu.Lock()
	e.d.drop(upto)
	seg2 := &segment{eng: eng2, st: statsOf(ix2)}
	v2 := e.d.freeze(seg2.st)
	old := e.snap.Load()
	e.snap.Store(newSnapshot(seg2, v2))
	e.mu.Unlock()
	old.release()

	e.statsMu.Lock()
	e.st.Merges++
	if e.st.MergedGen < upto {
		e.st.MergedGen = upto
	}
	e.st.MergedDocs += int64(v.Docs())
	e.st.MergeDevice += devTime
	e.st.MergeCPU += cpuTime
	e.st.MergeStall += stall
	e.statsMu.Unlock()
	return nil
}

// changedList describes one posting list the merge re-encodes.
type changedList struct {
	term   string
	old    *index.PostingList // nil for delta-only terms
	oldN   int
	merged int
	ids    []uint32
	freqs  []uint32
}

// mergePlan is the merge's logical output: re-encoded lists, shared
// lists, and the live document lengths.
type mergePlan struct {
	changed []changedList
	shared  []*index.PostingList
	docLens map[uint32]uint32
}

// build materializes the plan through the ordinary index builder — the
// exact constructor a fresh build over the live corpus would use, which
// is what makes quiesced golden parity hold by construction.
func (p *mergePlan) build(codec index.Codec) (*index.Index, error) {
	b := index.NewBuilder(codec)
	for _, pl := range p.shared {
		b.AddPrebuilt(pl)
	}
	for _, ch := range p.changed {
		if len(ch.ids) == 0 {
			continue // fully tombstoned: the term leaves the dictionary
		}
		if err := b.AddPostings(ch.term, ch.ids, ch.freqs); err != nil {
			return nil, err
		}
	}
	for id, l := range p.docLens {
		b.SetDocLen(id, l)
	}
	return b.Build()
}

// planMerge computes the merged logical corpus: every main term filtered
// through the shadow set and unioned with the delta's live postings,
// plus delta-only terms, plus the live document-length map.
func planMerge(main *index.Index, v *View) (*mergePlan, error) {
	p := &mergePlan{docLens: make(map[uint32]uint32)}

	for d, l := range main.DocLens {
		if l > 0 && v.docs[uint32(d)] == nil {
			p.docLens[uint32(d)] = l
		}
	}
	for id, rec := range v.docs {
		if rec.live() {
			p.docLens[id] = rec.length
		}
	}

	for _, term := range main.Terms() {
		pl, _ := main.Lookup(term)
		deltaIDs := v.postings[term]
		ids := pl.DocIDs()
		shadowed := false
		for _, d := range ids {
			if v.docs[d] != nil {
				shadowed = true
				break
			}
		}
		if !shadowed && len(deltaIDs) == 0 {
			p.shared = append(p.shared, pl)
			continue
		}
		mIDs, mFreqs := mergePostings(pl, ids, v, term)
		p.changed = append(p.changed, changedList{
			term: term, old: pl, oldN: pl.N, merged: len(mIDs), ids: mIDs, freqs: mFreqs,
		})
	}

	// Delta-only terms (absent from the main dictionary), sorted for a
	// deterministic device-submission order.
	var fresh []string
	for term := range v.postings {
		if _, ok := main.Lookup(term); !ok {
			fresh = append(fresh, term)
		}
	}
	sort.Strings(fresh)
	for _, term := range fresh {
		mIDs, mFreqs := mergePostings(nil, nil, v, term)
		p.changed = append(p.changed, changedList{
			term: term, merged: len(mIDs), ids: mIDs, freqs: mFreqs,
		})
	}
	return p, nil
}

// mergePostings merges one term's live main postings (shadow-filtered)
// with its live delta postings, both ascending.
func mergePostings(pl *index.PostingList, mainIDs []uint32, v *View, term string) ([]uint32, []uint32) {
	deltaIDs := v.postings[term]
	ids := make([]uint32, 0, len(mainIDs)+len(deltaIDs))
	freqs := make([]uint32, 0, len(mainIDs)+len(deltaIDs))
	i, j := 0, 0
	for i < len(mainIDs) || j < len(deltaIDs) {
		if i < len(mainIDs) && v.docs[mainIDs[i]] != nil {
			i++ // shadowed: superseded or tombstoned
			continue
		}
		takeMain := j >= len(deltaIDs) || (i < len(mainIDs) && mainIDs[i] < deltaIDs[j])
		if takeMain {
			if i >= len(mainIDs) {
				break
			}
			ids = append(ids, mainIDs[i])
			freqs = append(freqs, pl.FreqOf(i))
			i++
		} else {
			d := deltaIDs[j]
			ids = append(ids, d)
			freqs = append(freqs, v.docs[d].tf[term])
			j++
		}
	}
	return ids, freqs
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
