// Package ingest is Griffin's write path: a live-mutation layer over the
// read-only engine, one owner (Cluster) at every shard count — a
// single-node live engine is a one-shard cluster. Per shard, an in-memory
// delta index absorbs Add/Update/Delete with whole-document records and a
// tombstone set; reads are snapshot-isolated — each query reads immutable
// (main segment, delta generation) pairs, so concurrent mutations never
// tear a result and a quiesced cluster is byte-identical to one freshly
// built over the same logical corpus. A background merger folds delta postings into the
// compressed main index with the index.Builder's own block encoders
// (Elias-Fano / PForDelta) — re-encoding each changed list from the first
// block the delta touches and sharing everything before it — priced on
// the shared device and CPU timelines so merge/query interference is
// visible, and swaps the new segment into the serving cluster under a
// commit gate the queries in flight hold shared.
package ingest

import (
	"fmt"
	"sort"
)

// docRecord is one document's latest state in the delta: either a whole
// new version (Add/Update) or a tombstone (Delete). Records are
// immutable once written — a later mutation of the same document
// replaces the record — so frozen views can share them with the writer.
type docRecord struct {
	// gen is the generation of the mutation that produced this record;
	// the merger drops records whose gen is covered by a committed merge.
	gen uint64
	// deleted marks a tombstone (the document's main-segment version, if
	// any, is dead and no delta version replaces it).
	deleted bool
	// length is the document's token count (0 for tombstones).
	length uint32
	// tf maps each distinct term to its within-document frequency (nil
	// for tombstones).
	tf map[string]uint32
}

// delta is the writer-side mutable state of one shard, guarded by the
// cluster's writer lock. Reads never touch it: they pin a frozen View instead.
type delta struct {
	// gen counts mutations; the frozen view lags it until the next freeze.
	gen uint64
	// docs holds the latest record per docID. A document's presence here
	// — live or tombstoned — shadows its main-segment version entirely.
	docs map[uint32]*docRecord
	// termDocs indexes the *live* delta documents by term.
	termDocs map[string]map[uint32]struct{}
	// dirty marks terms whose sorted posting slice must be rebuilt at the
	// next freeze; clean terms reuse the previous view's slices.
	dirty map[string]struct{}
	// frozen is the view matching some earlier generation (nil before the
	// first freeze).
	frozen *View
}

func newDelta() *delta {
	return &delta{
		docs:     make(map[uint32]*docRecord),
		termDocs: make(map[string]map[uint32]struct{}),
		dirty:    make(map[string]struct{}),
	}
}

// tokenCounts folds a token stream into per-term frequencies.
func tokenCounts(tokens []string) (map[string]uint32, uint32) {
	tf := make(map[string]uint32, len(tokens))
	for _, tok := range tokens {
		tf[tok]++
	}
	return tf, uint32(len(tokens))
}

// detach removes docID from the live term postings of its current record
// (no-op for tombstones or unknown docs), dirtying the touched terms.
func (d *delta) detach(docID uint32) {
	old := d.docs[docID]
	if old == nil || old.deleted {
		return
	}
	for t := range old.tf {
		if set := d.termDocs[t]; set != nil {
			delete(set, docID)
			if len(set) == 0 {
				delete(d.termDocs, t)
			}
		}
		d.dirty[t] = struct{}{}
	}
}

// put installs a record as docID's latest state.
func (d *delta) put(docID uint32, rec *docRecord) {
	d.detach(docID)
	d.docs[docID] = rec
	for t := range rec.tf {
		set := d.termDocs[t]
		if set == nil {
			set = make(map[uint32]struct{})
			d.termDocs[t] = set
		}
		set[docID] = struct{}{}
		d.dirty[t] = struct{}{}
	}
}

// drop removes every record with gen <= upto — the commit step of a
// merge: those records are now represented in the merged main segment.
// Records written during the merge (gen > upto) stay, and keep shadowing
// whatever the merged segment says about their documents.
func (d *delta) drop(upto uint64) {
	for id, rec := range d.docs {
		if rec.gen > upto {
			continue
		}
		d.detach(id)
		delete(d.docs, id)
	}
	// The previous view is stale wholesale (its docs map holds dropped
	// records), so the next freeze rebuilds from scratch: mark every
	// surviving term dirty and forget the frozen view.
	for t := range d.termDocs {
		d.dirty[t] = struct{}{}
	}
	d.frozen = nil
}

// mutErr is a typed validation failure (bad Add/Update/Delete).
type mutErr struct{ msg string }

func (e *mutErr) Error() string { return e.msg }

func mutErrf(format string, args ...any) error {
	return &mutErr{msg: fmt.Sprintf(format, args...)}
}

// IsInvalid reports whether err is a mutation-validation failure (the
// caller sent a bad request, as opposed to an internal fault).
func IsInvalid(err error) bool {
	_, ok := err.(*mutErr)
	return ok
}

// pending counts the delta's records (live + tombstoned) and, of those,
// the tombstones.
func (d *delta) pending() (docs, tombstones int) {
	for _, rec := range d.docs {
		if rec.deleted {
			tombstones++
		}
	}
	return len(d.docs), tombstones
}

// freeze builds the immutable View for the writer's current generation,
// reusing the previous view's posting slices for clean terms. Caller
// holds the writer lock.
func (d *delta) freeze() *View {
	prev := d.frozen
	v := &View{
		gen:      d.gen,
		docs:     make(map[uint32]*docRecord, len(d.docs)),
		postings: make(map[string][]uint32, len(d.termDocs)),
		decr:     make(map[string]decrEntry),
	}
	for id, rec := range d.docs {
		v.docs[id] = rec
	}
	if prev != nil {
		for t, ids := range prev.postings {
			if _, isDirty := d.dirty[t]; !isDirty {
				v.postings[t] = ids
			}
		}
	}
	for t := range d.dirty {
		set := d.termDocs[t]
		if len(set) == 0 {
			continue
		}
		ids := make([]uint32, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		v.postings[t] = ids
	}
	d.dirty = make(map[string]struct{})
	d.frozen = v
	return v
}
