// Package intersect implements the CPU-side list-intersection algorithms
// of §2.1.2/§2.2: block-wise sorted merge for comparable-length lists, and
// skip-pointer binary search ("CPU binary") that touches only candidate
// blocks when the length difference is large, reading them in place with
// Elias-Fano select — the behaviour that makes the CPU win at high length
// ratios (Figure 8). Both switches, merge to skip search in Pair and
// decode to select inside SkipSearch, sit at DefaultSkipThreshold.
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
// The in-block arm follows the same DefaultSkipThreshold rule that routes
// Pair:
//
//   - at a length ratio of 16 or more, with a long list that has random
//     access, Elias-Fano select reads single elements of the compressed
//     block in place (skipSelect). There a long block holds at most 8
//     probes on average, and a probe's binary search selects ~7 elements
//     where decoding the block reads 128. Every call Pair makes lands here;
//   - below 16x — reached only by a caller that forces a skip search on
//     comparable lengths, Figure 13's "CPU binary" — each candidate block
//     is decoded once and binary searched (skipDecode): the decode volume
//     approaches the whole list, which is why the paper finds CPU binary
//     slowest there. A long list without random access always decodes.
func SkipSearch(short, long index.BlockList) Result {
	if ra, ok := long.(index.RandomAccess); ok && long.Len() >= DefaultSkipThreshold*short.Len() {
		return skipSelect(short, long, ra)
	}
	return skipDecode(short, long)
}

// skipSelect is SkipSearch's select arm: it binary searches each candidate
// block in place through ra, one select probe per element read.
func skipSelect(short, long index.BlockList, ra index.RandomAccess) Result {
	var res Result
	skipWalk(short, long, &res, func(blk int, v uint32) bool {
		lo, hi := 0, long.BlockLen(blk)
		for lo < hi {
			res.Work.SelectProbes++
			mid := (lo + hi) / 2
			switch x := ra.Get(blk, mid); {
			case x < v:
				lo = mid + 1
			case x > v:
				hi = mid
			default:
				return true
			}
		}
		return false
	})
	return res
}

// skipDecode is SkipSearch's decode arm: it decodes each candidate block
// once, keeps it across the consecutive probes that land in it, and binary
// searches the decoded values.
func skipDecode(short, long index.BlockList) Result {
	var res Result
	var buf [index.BlockSize]uint32
	cur := -1
	var lv []uint32
	skipWalk(short, long, &res, func(blk int, v uint32) bool {
		if blk != cur {
			n := long.DecompressBlock(blk, buf[:])
			chargeDecode(long, n, &res.Work)
			lv = buf[:n]
			cur = blk
		}
		lo, hi := 0, len(lv)
		for lo < hi {
			res.Work.BinaryProbes++
			mid := (lo + hi) / 2
			switch {
			case lv[mid] < v:
				lo = mid + 1
			case lv[mid] > v:
				hi = mid
			default:
				return true
			}
		}
		return false
	})
	return res
}

// skipWalk decodes the short list block by block, routes each element v to
// its candidate long block through the skip pointers, and appends v to
// res.IDs when probe(blk, v) finds it there. It bills the short list's
// decode and the skip-array probes; probe bills its own in-block work.
func skipWalk(short, long index.BlockList, res *Result, probe func(blk int, v uint32) bool) {
	if long.NumBlocks() == 0 {
		return
	}
	var buf [index.BlockSize]uint32
	first := long.BlockFirst(0)
	hint := 0 // galloping seek position in the skip array
	for sb := 0; sb < short.NumBlocks(); sb++ {
		n := short.DecompressBlock(sb, buf[:])
		chargeDecode(short, n, &res.Work)
		for _, v := range buf[:n] {
			if first > v {
				res.Work.CachedProbes++
				continue // v precedes every long-list element
			}
			blk, probes := seekBlock(long, v, hint)
			res.Work.CachedProbes += int64(probes)
			hint = blk
			if probe(blk, v) {
				res.IDs = append(res.IDs, v)
			}
		}
	}
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
// probes per short element — its select arm, which it runs at every ratio
// at or above the same threshold, so the estimate prices the arm every
// adaptive call takes. exec.Op.Estimate and sched.CostPolicy price it with
// CPUModel.Time.
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
