package spatial

import (
	"math"
	"math/bits"
)

// minXKey maps a MinX coordinate to a uint64 that orders exactly as
// cmp.Compare orders the floats: positive values get the sign bit set,
// negative values are bit-inverted, and -0 is folded into +0 because
// cmp.Compare treats the two as equal. NaN never reaches a cascade
// step — Execute validates every rectangle — so it needs no slot.
func minXKey(x float64) uint64 {
	if x == 0 {
		x = 0 // -0 == 0, so this stores +0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// orderByMinX reorders recs ascending by minX, records with equal MinX
// keeping their input order: the order slices.SortStableFunc with
// cmp.Compare on minX produces, computed in linear time. Each record's
// MinX is extracted once into a uint64 key (minXKey); an LSD radix sort
// orders the (key, input index) pairs — stable, so equal keys stay in
// index order — and the resulting permutation is applied to recs in
// place by cycle-following, so no record is copied out. The scratch is
// 24 bytes per record, against the 48-byte partials and items it
// orders.
func orderByMinX[T any](recs []T, minX func(*T) float64) {
	n := len(recs)
	if n < 2 {
		return
	}
	keys := make([]uint64, n)
	sorted := true
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range recs {
		k := minXKey(minX(&recs[i]))
		keys[i] = k
		if i > 0 && k < keys[i-1] {
			sorted = false
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	if sorted {
		return
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	radixSortKeyed(keys, perm, lo, hi)

	// perm[j] is the input index of the record that belongs at j. Walk
	// each cycle once, marking placed positions with perm[j] = j.
	for i := range recs {
		if perm[i] == uint32(i) {
			continue
		}
		held := recs[i]
		j := i
		for {
			src := int(perm[j])
			perm[j] = uint32(j)
			if src == i {
				recs[j] = held
				break
			}
			recs[j] = recs[src]
			j = src
		}
	}
}

// radixSortKeyed stable-sorts keys ascending with an LSD radix sort over
// the span hi-lo, carrying vals along; vals holds the result on return,
// keys are left in an unspecified order. Digits are at most 11 bits
// wide, and a pass whose digit is the same for every key is skipped.
func radixSortKeyed(keys []uint64, vals []uint32, lo, hi uint64) {
	n := len(keys)
	nbits := bits.Len64(hi - lo)
	if nbits == 0 {
		return
	}
	passes := (nbits + 10) / 11
	width := (nbits + passes - 1) / passes
	mask := uint64(1)<<width - 1
	src, srcVals := keys, vals
	dst, dstVals := make([]uint64, n), make([]uint32, n)
	var counts [1 << 11]uint32
	for p := 0; p < passes; p++ {
		shift := uint(p * width)
		c := counts[:1<<width]
		clear(c)
		for _, k := range src {
			c[(k-lo)>>shift&mask]++
		}
		if c[(src[0]-lo)>>shift&mask] == uint32(n) {
			continue // every key shares this digit
		}
		var sum uint32
		for d, cnt := range c {
			c[d] = sum
			sum += cnt
		}
		for i, k := range src {
			d := (k - lo) >> shift & mask
			dst[c[d]] = k
			dstVals[c[d]] = srcVals[i]
			c[d]++
		}
		src, srcVals, dst, dstVals = dst, dstVals, src, srcVals
	}
	if &srcVals[0] != &vals[0] {
		copy(vals, srcVals)
	}
}
