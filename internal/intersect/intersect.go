// Package intersect implements the CPU-side list-intersection algorithms
// of §2.1.2/§2.2: block-wise sorted merge for comparable-length lists, and
// skip-pointer binary search ("CPU binary") that decompresses only
// candidate blocks when the length difference is large — the behaviour
// that makes the CPU win at high length ratios (Figure 8).
//
// Every function returns both the matches and the hwmodel.CPUWork counts
// that drive the simulated-latency model: the algorithms do the real work,
// the model prices it.
package intersect

import (
	"griffin/internal/hwmodel"
	"griffin/internal/index"
)

// DefaultSkipThreshold is the length ratio above which the CPU path
// switches from sequential merge to skip-pointer binary search. CPU merge
// loses to galloping well before the GPU's 128 crossover; 16 matches the
// comparable-length bound the paper uses when selecting Figure 13's
// workloads ("the length of the longer list is less than 16x longer").
const DefaultSkipThreshold = 16

// Result is the outcome of one pairwise intersection.
type Result struct {
	// IDs are the common docIDs, ascending.
	IDs []uint32
	// Work is the billable CPU work the operation performed.
	Work hwmodel.CPUWork
}

// chargeDecode books n decoded elements against the view's codec.
func chargeDecode(v index.BlockList, n int, w *hwmodel.CPUWork) {
	switch v.(type) {
	case index.EFView:
		w.EFDecodedElems += int64(n)
	default:
		// Raw intermediate results: a streaming copy, not a decode.
		w.BytesTouched += int64(4 * n)
	}
}

// Merge intersects two lists with the block-wise two-pointer merge: both
// lists are decompressed block by block and scanned sequentially — the
// high-spatial-locality path CPUs run well when the lists have comparable
// lengths (§2.2).
func Merge(a, b index.BlockList) Result {
	var res Result
	var bufA, bufB [index.BlockSize]uint32

	ai, an := 0, 0 // cursor and fill of the current a block
	bi, bn := 0, 0
	ab, bb := 0, 0 // next block index to decode
	var av, bv []uint32

	refillA := func() bool {
		if ab >= a.NumBlocks() {
			return false
		}
		an = a.DecompressBlock(ab, bufA[:])
		chargeDecode(a, an, &res.Work)
		av = bufA[:an]
		ab++
		ai = 0
		return true
	}
	refillB := func() bool {
		if bb >= b.NumBlocks() {
			return false
		}
		bn = b.DecompressBlock(bb, bufB[:])
		chargeDecode(b, bn, &res.Work)
		bv = bufB[:bn]
		bb++
		bi = 0
		return true
	}
	if !refillA() || !refillB() {
		return res
	}
	for {
		x, y := av[ai], bv[bi]
		res.Work.MergedElements++
		switch {
		case x < y:
			ai++
			if ai == an && !refillA() {
				return res
			}
		case x > y:
			bi++
			if bi == bn && !refillB() {
				return res
			}
		default:
			res.IDs = append(res.IDs, x)
			ai++
			bi++
			if ai == an && !refillA() {
				return res
			}
			if bi == bn && !refillB() {
				return res
			}
		}
	}
}

// SkipSearch intersects a short list against a much longer one using the
// skip pointers: each short-list element is routed to its single candidate
// block of the long list by a galloping search over block first-docIDs
// (probes ascend with the short list, so the seek resumes from the last
// hit — amortized O(1 + log of the stride) per element on a cache-resident
// skip array), then the candidate block is probed (Figure 2's "fast locate
// the required blocks"; the λ > 128 block-skipping effect of Figure 9).
//
// The in-block strategy adapts to probe density:
//
//   - sparse probes (fewer short elements than ~2 per long block — the
//     high-ratio regime of Figure 8) use Elias-Fano select to read single
//     elements of the compressed block in place, so the bulk of the long
//     list is never decoded;
//   - dense probes (the comparable-length regime of Figure 13's "CPU
//     binary") decode each candidate block once, cache it, and binary
//     search the decoded values — per-block decode amortizes across the
//     many probes landing in it, but the decode volume approaches the
//     whole list, which is why the paper finds CPU binary slowest there.
func SkipSearch(short, long index.BlockList) Result {
	var res Result
	var bufS, bufL [index.BlockSize]uint32
	nBlocks := long.NumBlocks()
	if nBlocks == 0 || short.Len() == 0 {
		// Still bill the short-list scan that discovers emptiness.
		return res
	}

	ra, hasRA := long.(index.RandomAccess)
	useSelect := hasRA && short.Len() < 2*nBlocks

	curBlock := -1 // decompressed long block cached across probes (decode path)
	var lv []uint32
	hint := 0 // galloping seek position in the skip array

	for sb := 0; sb < short.NumBlocks(); sb++ {
		sn := short.DecompressBlock(sb, bufS[:])
		chargeDecode(short, sn, &res.Work)
		for _, v := range bufS[:sn] {
			if long.BlockFirst(0) > v {
				res.Work.CachedProbes++
				continue // v precedes every long-list element
			}
			blk, probes := seekBlock(long, v, hint)
			res.Work.CachedProbes += int64(probes)
			hint = blk

			if useSelect {
				// Probe the compressed block in place via EF select.
				blo, bhi := 0, long.BlockLen(blk)
				for blo < bhi {
					res.Work.SelectProbes++
					mid := (blo + bhi) / 2
					x := ra.Get(blk, mid)
					switch {
					case x < v:
						blo = mid + 1
					case x > v:
						bhi = mid
					default:
						res.IDs = append(res.IDs, v)
						blo = bhi
					}
				}
				continue
			}

			// Decode the candidate block once and binary search the
			// decoded values (cached across consecutive probes).
			if blk != curBlock {
				n := long.DecompressBlock(blk, bufL[:])
				chargeDecode(long, n, &res.Work)
				lv = bufL[:n]
				curBlock = blk
			}
			blo, bhi := 0, len(lv)
			for blo < bhi {
				res.Work.BinaryProbes++
				mid := (blo + bhi) / 2
				switch {
				case lv[mid] < v:
					blo = mid + 1
				case lv[mid] > v:
					bhi = mid
				default:
					res.IDs = append(res.IDs, v)
					blo = bhi
				}
			}
		}
	}
	return res
}

// seekBlock returns the index of the last block whose first docID is <= v,
// galloping forward from hint (valid because probe values ascend). The
// caller guarantees BlockFirst(0) <= v and 0 <= hint < NumBlocks.
func seekBlock(l index.BlockList, v uint32, hint int) (blk, probes int) {
	n := l.NumBlocks()
	lo := hint
	probes++
	if l.BlockFirst(lo) > v {
		// Hint overshot (first probe of a new short block can restart
		// below the hint); fall back to a plain binary search.
		lo = 0
	}
	// Exponential gallop for the upper bound.
	step := 1
	hi := lo + 1
	for hi < n {
		probes++
		if l.BlockFirst(hi) > v {
			break
		}
		lo = hi
		hi += step
		step *= 2
	}
	if hi > n {
		hi = n
	}
	// Binary search (lo, hi): last index with BlockFirst <= v.
	for lo+1 < hi {
		probes++
		mid := (lo + hi) / 2
		if l.BlockFirst(mid) <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// Pair intersects two lists, choosing merge or skip search by the length
// ratio against threshold (<= 0 means DefaultSkipThreshold) — the CPU
// implementation's adaptive choice described in §2.2. The shorter list is
// always probed into the longer one.
func Pair(a, b index.BlockList, threshold int) Result {
	if threshold <= 0 {
		threshold = DefaultSkipThreshold
	}
	short, long := a, b
	if short.Len() > long.Len() {
		short, long = long, short
	}
	if short.Len() == 0 {
		return Result{}
	}
	if long.Len() >= threshold*short.Len() {
		return SkipSearch(short, long)
	}
	return Merge(short, long)
}

// EstimatePair is Pair's closed form at DefaultSkipThreshold: the work of
// intersecting lists of short <= long postings, from their lengths alone.
// Below the threshold Merge decodes and scans both lists; at or above it
// SkipSearch gallops ~4 cached skip probes and runs ~7 in-block select
// probes per short element. exec.Op.Estimate and sched.CostPolicy price it
// with CPUModel.Time.
func EstimatePair(short, long int) hwmodel.CPUWork {
	if long < DefaultSkipThreshold*short {
		return hwmodel.CPUWork{
			EFDecodedElems: int64(short + long),
			MergedElements: int64(short + long),
		}
	}
	return hwmodel.CPUWork{
		CachedProbes: int64(4 * short),
		SelectProbes: int64(7 * short),
	}
}

// OrderByLength returns indices of the lists sorted ascending by length —
// the SvS ordering that starts with the two rarest terms (§2.1.2).
func OrderByLength(lists []index.BlockList) []int {
	order := make([]int, len(lists))
	for i := range order {
		order[i] = i
	}
	// Insertion sort: query term counts are tiny (Figure 11: mostly 2-6).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && lists[order[j]].Len() < lists[order[j-1]].Len(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// SvS computes the full conjunctive intersection of the given lists with
// the SvS strategy: order by length, intersect the two shortest, then fold
// each longer list into the shrinking intermediate, stopping early when it
// empties (§2.1.2). Returns the final matches and the accumulated work.
func SvS(lists []index.BlockList, threshold int) Result {
	switch len(lists) {
	case 0:
		return Result{}
	case 1:
		// Degenerate single-list "intersection": decompress it.
		var res Result
		var buf [index.BlockSize]uint32
		l := lists[0]
		for i := 0; i < l.NumBlocks(); i++ {
			n := l.DecompressBlock(i, buf[:])
			chargeDecode(l, n, &res.Work)
			res.IDs = append(res.IDs, buf[:n]...)
		}
		return res
	}
	order := OrderByLength(lists)
	res := Pair(lists[order[0]], lists[order[1]], threshold)
	for _, oi := range order[2:] {
		if len(res.IDs) == 0 {
			return res
		}
		step := Pair(index.RawView{IDs: res.IDs}, lists[oi], threshold)
		res.IDs = step.IDs
		res.Work.Add(step.Work)
	}
	return res
}
