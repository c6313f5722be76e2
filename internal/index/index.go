// Package index implements the inverted index at the heart of query
// processing (§2.1): a term dictionary mapping each search term to a
// compressed posting list of ascending docIDs with per-document term
// frequencies, 128-element compression blocks, and per-block skip pointers
// (Figure 2) that let intersections locate candidate blocks by binary
// search without decompressing the rest of the list. A block's skip
// pointer is the first docID in its table row (EFView.BlockFirst); no
// separate array of them is kept.
//
// Each posting list stores its docIDs in Elias-Fano form, Griffin's codec
// and the index's only one; the PForDelta baseline that Table 1 and
// Figure 12 compare it with is compressed by those experiments directly.
package index

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"griffin/internal/ef"
)

// BlockSize is the posting-list compression block size (§3.2 ties the
// GPU/CPU crossover threshold to it).
const BlockSize = ef.BlockSize

// PostingList holds one term's compressed postings.
type PostingList struct {
	// Term is the dictionary key.
	Term string
	// N is the number of documents containing the term (its document
	// frequency in the collection).
	N int
	// EF is the Elias-Fano-compressed docID list.
	EF *ef.List
	// Freqs stores the within-document frequency of the term in each
	// posting's document (bit-packed), used by BM25 (§2.1.3).
	Freqs *FreqStore
	// GlobalN overrides N as the document frequency used for BM25 scoring
	// (0 = use N). A document-partitioned shard index sets it to the
	// term's collection-wide frequency so per-shard scores are
	// bit-identical to scoring against the unpartitioned index; every
	// structural use of the list (intersection, cost estimation) keeps
	// seeing the shard-local N.
	GlobalN int
}

// Len returns the posting count.
func (p *PostingList) Len() int { return p.N }

// ScoringN returns the document frequency BM25 should use: the
// collection-wide GlobalN when set (shard of a partitioned index), the
// list's own N otherwise.
func (p *PostingList) ScoringN() int {
	if p.GlobalN > 0 {
		return p.GlobalN
	}
	return p.N
}

// FreqForDoc returns the term frequency for docID d, locating the posting
// by binary search over the skip pointers and then within the candidate
// block (the lookup ranking performs per surviving candidate, §2.1.3).
// probes reports the binary-search comparisons for the cost model.
func (p *PostingList) FreqForDoc(d uint32) (freq uint32, probes int, found bool) {
	// The table is indexed in place with the constant page shift: the
	// probe sequence is that of a search over a flat table.
	pages := p.EF.Pages
	lo, hi := 0, p.EF.NumBlocks()
	for lo < hi {
		probes++
		mid := (lo + hi) / 2
		if pages[mid>>ef.PageShift].Rows[mid&(1<<ef.PageShift-1)].FirstDocID <= d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, probes, false
	}
	bi := lo - 1
	// Probe the compressed block in place (Elias-Fano select) rather
	// than decoding all of it to look at ~7 elements; the comparison
	// sequence, and so probes, is that of a search over the decoded block.
	blo, bhi := 0, int(pages[bi>>ef.PageShift].Rows[bi&(1<<ef.PageShift-1)].N)
	for blo < bhi {
		probes++
		mid := (blo + bhi) / 2
		switch v := p.EF.Get(bi, mid); {
		case v < d:
			blo = mid + 1
		case v > d:
			bhi = mid
		default:
			return p.Freqs.inBlock(bi, mid), probes, true
		}
	}
	return 0, probes, false
}

// Index is an in-memory inverted index plus the collection statistics BM25
// needs.
type Index struct {
	// NumDocs is the collection size.
	NumDocs int
	// DocLens holds the token length of document d at index d, in packed
	// pages that a merged segment shares with the one it was merged from
	// wherever no document changed.
	DocLens LenTable
	// AvgDocLen is the mean document length.
	AvgDocLen float64

	terms  map[string]*PostingList
	mapped []byte // the file bytes Open parsed; nil for an index built or read in
	// lensEnd is where in mapped the doc-length section ends and the
	// first term record begins.
	lensEnd int
}

// Lookup returns the posting list for term, if indexed.
func (ix *Index) Lookup(term string) (*PostingList, bool) {
	p, ok := ix.terms[term]
	return p, ok
}

// NumTerms returns the dictionary size.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// Terms returns all dictionary terms in sorted order.
func (ix *Index) Terms() []string {
	out := make([]string, 0, len(ix.terms))
	for t := range ix.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ListSizes returns the posting-list lengths of every term (the Figure 10
// distribution input).
func (ix *Index) ListSizes() []int {
	out := make([]int, 0, len(ix.terms))
	for _, p := range ix.terms {
		out = append(out, p.N)
	}
	sort.Ints(out)
	return out
}

// DocLen returns document d's token length (1 if unknown, avoiding
// divide-by-zero in scoring).
func (ix *Index) DocLen(d uint32) uint32 { return max(ix.DocLens.At(d), 1) }

// Codec names an index's compressed form. Elias-Fano is the only one;
// the type stays only because the serving benchmark (bench/) names it.
type Codec int

// CodecEF is Elias-Fano, the only codec.
const CodecEF Codec = 0

// Builder accumulates documents and produces an Index.
type Builder struct {
	postings map[string]*building
	docLens  map[uint32]uint32
	maxDocID uint32
	hasDocs  bool
}

type building struct {
	docIDs []uint32
	freqs  []uint32
}

// NewBuilder returns an empty Builder. Its parameter can only be
// CodecEF, and stays only because the serving benchmark (bench/) passes it.
func NewBuilder(Codec) *Builder {
	return &Builder{
		postings: make(map[string]*building),
		docLens:  make(map[uint32]uint32),
	}
}

// ErrDocOrder is returned when documents are added with non-increasing IDs.
var ErrDocOrder = errors.New("index: documents must be added in ascending docID order")

// AddDocument indexes one document's token stream. Documents must arrive
// in strictly ascending docID order (the standard single-pass build).
func (b *Builder) AddDocument(docID uint32, tokens []string) error {
	if b.hasDocs && docID <= b.maxDocID {
		return fmt.Errorf("%w: got %d after %d", ErrDocOrder, docID, b.maxDocID)
	}
	b.hasDocs = true
	b.maxDocID = docID
	b.docLens[docID] = uint32(len(tokens))

	counts := make(map[string]uint32)
	for _, tok := range tokens {
		counts[tok]++
	}
	for term, freq := range counts {
		p := b.postings[term]
		if p == nil {
			p = &building{}
			b.postings[term] = p
		}
		p.docIDs = append(p.docIDs, docID)
		p.freqs = append(p.freqs, freq)
	}
	return nil
}

// AddPostings indexes a raw posting list directly (the synthetic-workload
// path): docIDs strictly ascending, freqs parallel (nil means all 1).
func (b *Builder) AddPostings(term string, docIDs []uint32, freqs []uint32) error {
	if freqs != nil && len(freqs) != len(docIDs) {
		return fmt.Errorf("index: %d freqs for %d docIDs", len(freqs), len(docIDs))
	}
	// Validate the whole run before touching the builder, then append it
	// in bulk: one growth per slice instead of one per posting.
	p := b.postings[term]
	prev, hasPrev := uint32(0), p != nil && len(p.docIDs) > 0
	if hasPrev {
		prev = p.docIDs[len(p.docIDs)-1]
	}
	for _, id := range docIDs {
		if hasPrev && id <= prev {
			return fmt.Errorf("%w: term %q docID %d", ef.ErrNotAscending, term, id)
		}
		prev, hasPrev = id, true
	}
	if p == nil {
		p = &building{}
		b.postings[term] = p
	}
	if len(docIDs) == 0 {
		return nil
	}
	p.docIDs = append(p.docIDs, docIDs...)
	if freqs != nil {
		p.freqs = append(p.freqs, freqs...)
	} else {
		p.freqs = slices.Grow(p.freqs, len(docIDs))
		for range docIDs {
			p.freqs = append(p.freqs, 1)
		}
	}
	if !b.hasDocs || prev > b.maxDocID {
		b.maxDocID = prev
		b.hasDocs = true
	}
	return nil
}

// SetDocLen records a document's token length for scoring (used with
// AddPostings; AddDocument records lengths automatically).
func (b *Builder) SetDocLen(docID uint32, n uint32) {
	b.docLens[docID] = n
	if !b.hasDocs || docID > b.maxDocID {
		b.maxDocID = docID
		b.hasDocs = true
	}
}

// Build compresses every accumulated posting list and returns the Index.
func (b *Builder) Build() (*Index, error) {
	ix := &Index{terms: make(map[string]*PostingList, len(b.postings))}
	var lens []uint32
	if b.hasDocs {
		ix.NumDocs = int(b.maxDocID) + 1
		lens = make([]uint32, ix.NumDocs)
		var sum uint64
		var cnt int
		for id, l := range b.docLens {
			lens[id] = l
			sum += uint64(l)
			cnt++
		}
		if cnt > 0 {
			ix.AvgDocLen = float64(sum) / float64(cnt)
		}
	}
	ix.DocLens = NewLenTable(lens)

	for term, raw := range b.postings {
		pl, err := SpliceList(term, nil, 0, raw.docIDs, raw.freqs)
		if err != nil {
			return nil, err
		}
		ix.terms[term] = pl
	}
	return ix, nil
}
