package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"hddcart/internal/par"
)

// MaxBinsLimit is the largest usable finite-bin count per feature: bin
// codes are uint8 and one code above the finite bins is reserved for
// NaN/missing values, so at most 255 finite bins plus the reserved bin
// fit the code space.
const MaxBinsLimit = 255

// BinnedColumn is one feature's quantized view: every sample's raw value
// replaced by a small bin code, plus the per-bin value bounds the
// histogram trainer needs to turn a bin boundary back into a split
// threshold.
//
// Finite values (including ±Inf, which order normally) occupy bins
// 0..NumBins-1 in increasing value order; NaN/missing values all carry
// the reserved code NumBins. Bin b covers the closed raw-value interval
// [Lower[b], Upper[b]], intervals are disjoint and increasing, and equal
// raw values always share a bin — a tie can never straddle a boundary.
type BinnedColumn struct {
	// Codes holds one bin code per sample, in sample order. Codes[i] is
	// in [0, NumBins], where NumBins is the reserved missing code.
	Codes []uint8
	// Lower and Upper bound the raw values mapped into each finite bin
	// (Lower[b] = Upper[b] for singleton bins).
	Lower, Upper []float64
	// NumBins is the finite-bin count (≤ the maxBins the column was
	// built with); it doubles as the reserved missing code.
	NumBins int
	// Missing reports whether any sample carried the reserved code.
	Missing bool
	// keys holds searchKey(Upper[b]) for every finite bin: the integer
	// image of the bounds that CodeOf searches.
	keys []uint64
}

// MissingCode returns the reserved bin code for NaN/missing values.
func (c *BinnedColumn) MissingCode() uint8 { return uint8(c.NumBins) }

// EdgeBetween returns the split threshold separating finite bins a < b:
// the midpoint of the gap between a's largest and b's smallest raw value,
// computed exactly as the presorted exact path computes the midpoint
// between two consecutive distinct values. Samples with values ≤ Upper[a]
// compare < threshold (they go left); samples ≥ Lower[b] do not.
//
// Infinite bounds need care: the naive midpoint of −Inf and a finite (or
// +Inf) bound is NaN, and a NaN threshold mis-routes at inference (x < NaN
// is false for every x, sending the whole left bin right). When bin a is
// the −Inf bin the threshold is b's lower bound itself (−Inf < t holds,
// v ≥ Lower[b] < t does not); when both bounds are infinite any finite
// value separates and 0 is used. A +Inf right bound needs no special case:
// the midpoint is +Inf, and x < +Inf routes every finite value left.
func (c *BinnedColumn) EdgeBetween(a, b int) float64 {
	u, l := c.Upper[a], c.Lower[b]
	switch {
	case math.IsInf(u, -1) && math.IsInf(l, 1):
		return 0
	case math.IsInf(u, -1):
		return l
	}
	return u + (l-u)/2
}

// BinnedMatrix is the columnar quantized view of a feature matrix:
// one BinnedColumn per feature, all built over the same sample order.
// It is immutable after construction and safe for concurrent readers,
// which is what lets histogram training share one matrix across worker
// goroutines and across every node of a tree.
type BinnedMatrix struct {
	// NumSamples and NumFeatures record the source matrix shape.
	NumSamples, NumFeatures int
	// MaxBins is the finite-bin budget every column was built with.
	MaxBins int
	// Cols holds one quantized column per feature.
	Cols []BinnedColumn
}

// BinMatrix quantizes every column of x to at most maxBins finite bins
// (see BinColumn for the rule). The matrix must be non-empty and
// rectangular; maxBins must lie in [1, MaxBinsLimit]. Columns are binned
// concurrently on GOMAXPROCS goroutines; each column depends only on its
// own values, so the matrix is identical for every worker count.
func BinMatrix(x [][]float64, maxBins int) (*BinnedMatrix, error) {
	if maxBins < 1 || maxBins > MaxBinsLimit {
		return nil, fmt.Errorf("dataset: maxBins %d outside [1,%d]", maxBins, MaxBinsLimit)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("dataset: empty matrix")
	}
	nf := len(x[0])
	for i := range x {
		if len(x[i]) != nf {
			return nil, fmt.Errorf("dataset: ragged matrix at row %d", i)
		}
	}
	bm := &BinnedMatrix{NumSamples: len(x), NumFeatures: nf, MaxBins: maxBins, Cols: make([]BinnedColumn, nf)}
	// Each in-flight column borrows one sort scratch, so scratch memory
	// grows with the worker count, not the feature count.
	workers := runtime.GOMAXPROCS(0)
	free := make(chan *binScratch, workers)
	par.For(nf, workers, func(f int) {
		var s *binScratch
		select {
		case s = <-free:
		default:
			s = new(binScratch)
		}
		bm.Cols[f] = s.binColumn(x, f, maxBins)
		free <- s
	})
	return bm, nil
}

// BinColumn quantizes feature f of x into at most maxBins finite bins
// plus the reserved missing bin. The rule is deterministic quantile
// binning: when the column has at most maxBins distinct finite values,
// every distinct value becomes its own singleton bin (so binned split
// search sees exactly the boundaries the exact path sees); otherwise bins
// absorb runs of equal values greedily until each holds roughly an equal
// share of the remaining samples, never splitting a run of ties across
// two bins. The result depends only on the column's multiset of values —
// never on sample order, worker count, or map iteration.
//
// Callers that parallelize across features may invoke BinColumn
// concurrently for different f; it only reads x.
func BinColumn(x [][]float64, f, maxBins int) BinnedColumn {
	return new(binScratch).binColumn(x, f, maxBins)
}

// binScratch is one column's sort workspace: the finite values and their
// row indexes, plus the radix sort's second buffer of each. It is reused
// across columns, so binning a matrix allocates it once per worker.
type binScratch struct {
	vals, valsTmp []float64
	rows, rowsTmp []uint32
}

// sortKey maps a non-NaN float64 onto a uint64 whose unsigned order is
// the float order: negative values have every bit flipped, the rest only
// the sign bit. −0 orders just below +0.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// binColumn is BinColumn on s's workspace. It sorts the finite values
// once, each carrying its row index, by an LSD radix sort over sortKey;
// binBounds cuts the sorted run into bins, and one walk of the sorted
// order gives every row its code — the smallest bin whose upper bound
// covers the value, as CodeOf computes it.
func (s *binScratch) binColumn(x [][]float64, f, maxBins int) BinnedColumn {
	n := len(x)
	col := BinnedColumn{Codes: make([]uint8, n)}
	if cap(s.vals) < n {
		s.vals, s.valsTmp = make([]float64, n), make([]float64, n)
		s.rows, s.rowsTmp = make([]uint32, n), make([]uint32, n)
	}
	// Gather the finite values (±Inf included: they order normally; only
	// NaN is unordered and goes to the reserved bin), noting which key
	// bits differ between them.
	vals, rows := s.vals[:n], s.rows[:n]
	m := 0
	anyBits, allBits := uint64(0), ^uint64(0)
	for i := range x {
		v := x[i][f]
		if math.IsNaN(v) {
			col.Missing = true
			continue
		}
		k := sortKey(v)
		anyBits |= k
		allBits &= k
		vals[m], rows[m] = v, uint32(i)
		m++
	}
	vals, rows = s.radixSort(vals[:m], rows[:m], anyBits^allBits)

	if m > 0 {
		col.Lower, col.Upper = binBounds(vals, maxBins)
		col.NumBins = len(col.Upper)
		col.keys = upperKeys(col.Upper)
	}
	if col.Missing {
		missing := uint8(col.NumBins)
		for i := range col.Codes {
			col.Codes[i] = missing
		}
	}
	b := 0
	for j, v := range vals {
		for v > col.Upper[b] {
			b++
		}
		col.Codes[rows[j]] = uint8(b)
	}
	return col
}

// radixSort sorts vals ascending by sortKey, permuting rows alongside,
// and returns the sorted slices (which may be s's second buffers). Only
// the key bytes that some bit of varying touches get a pass, so a column
// of whole numbers below 2^16 takes three or four passes instead of
// eight. Equal keys keep their row order; the result depends only on
// the multiset of (value, row) pairs.
func (s *binScratch) radixSort(vals []float64, rows []uint32, varying uint64) ([]float64, []uint32) {
	m := len(vals)
	dstVals, dstRows := s.valsTmp[:m], s.rowsTmp[:m]
	for shift := 0; shift < 64; shift += 8 {
		if uint8(varying>>shift) == 0 {
			continue
		}
		var off [256]uint32
		for _, v := range vals {
			off[uint8(sortKey(v)>>shift)]++
		}
		var sum uint32
		for b, c := range off {
			off[b] = sum
			sum += c
		}
		for i, v := range vals {
			b := uint8(sortKey(v) >> shift)
			j := off[b]
			off[b]++
			dstVals[j], dstRows[j] = v, rows[i]
		}
		vals, dstVals = dstVals, vals
		rows, dstRows = dstRows, rows
	}
	return vals, rows
}

// binBounds derives the per-bin [lower, upper] value bounds from a sorted
// finite-value slice. When the slice holds at most maxBins distinct
// values every distinct value gets a singleton bin — the exactness fast
// path. Otherwise each bin's target share is recomputed as the ceiling of
// remaining-samples over remaining-bins, so early wide runs of ties
// cannot starve the later bins.
func binBounds(vals []float64, maxBins int) (lower, upper []float64) {
	n := len(vals)
	runs := 1
	for i := 1; i < n && runs <= maxBins; i++ {
		if distinct(vals[i-1], vals[i]) {
			runs++
		}
	}
	if runs <= maxBins {
		// Singleton bins: the binned split search sees exactly the
		// distinct-value boundaries the exact path sees.
		for i := 0; i < n; i++ {
			if i == 0 || distinct(vals[i-1], vals[i]) {
				lower = append(lower, vals[i])
				upper = append(upper, vals[i])
			}
		}
		return lower, upper
	}
	i := 0
	for b := 0; i < n && b < maxBins; b++ {
		binsLeft := maxBins - b
		target := ((n - i) + binsLeft - 1) / binsLeft
		lo := vals[i]
		end := i + target
		if binsLeft == 1 || end > n {
			end = n
		}
		// Never split a run of equal values: extend to the end of the
		// run the target landed in.
		for end < n && !distinct(vals[end-1], vals[end]) {
			end++
		}
		lower = append(lower, lo)
		upper = append(upper, vals[end-1])
		i = end
	}
	return lower, upper
}

// distinct reports whether two sorted neighbours are different values —
// the same boundary test the exact split search applies between
// consecutive sorted samples.
//
//hddlint:floatcmp operands are copies of stored feature values from a sorted column, so this tests value identity, not the result of arithmetic
func distinct(a, b float64) bool { return a != b }

// CodeOf quantizes one raw value with the column's binning rule: the
// smallest bin whose upper bound covers v, exactly as BinColumn assigns
// codes at construction. NaN takes the reserved missing code. A finite
// value above the top bin's upper bound also takes the reserved code —
// it routes right at every split, which is exact for any threshold that
// lies at or below the corpus's largest value (every threshold a trained
// tree produces).
func (c *BinnedColumn) CodeOf(v float64) uint8 {
	return uint8(c.search(v))
}

// searchKey is sortKey with the two zeros merged (−0 + 0 = +0), so that
// for non-NaN floats searchKey(a) < searchKey(b) exactly when a < b.
func searchKey(v float64) uint64 { return sortKey(v + 0) }

// upperKeys maps bin upper bounds onto their search keys.
func upperKeys(upper []float64) []uint64 {
	keys := make([]uint64, len(upper))
	for b, u := range upper {
		keys[b] = searchKey(u)
	}
	return keys
}

// search returns the smallest b with Upper[b] >= v, or NumBins when
// there is none (v is NaN or above the top bin): sort.SearchFloat64s
// over Upper, without a closure call per probe. It compares integer keys
// and advances with a borrow mask instead of a branch: a quantile-binned
// column's probes are a coin flip each, so a branch would mispredict
// every other step, and Go never turns a step that feeds the next
// probe's address into a conditional move.
func (c *BinnedColumn) search(v float64) int {
	keys := c.keys
	if len(keys) != len(c.Upper) {
		keys = upperKeys(c.Upper) // a column assembled by hand, not by BinColumn
	}
	n := len(keys)
	if n == 0 || math.IsNaN(v) {
		return n
	}
	kv := searchKey(v)
	base := 0
	for n > 1 {
		half := n >> 1
		_, less := bits.Sub64(keys[base+half-1], kv, 0)
		base += half & -int(less)
		n -= half
	}
	_, less := bits.Sub64(keys[base], kv, 0)
	return base + int(less)
}

// CutFor remaps a split threshold onto the column's code space: the cut
// is the code the threshold itself would quantize to, so a sample routes
// left under the binned comparison code < cut exactly when a
// bin-representative value routes left under v < t. exact reports
// whether the remapping is lossless for every value the column's bins
// can represent: it is false only when t falls strictly inside some
// bin's [Lower, Upper] value range, where corpus values on both sides of
// t share a code and no cut can reproduce the float comparison.
func (c *BinnedColumn) CutFor(t float64) (cut uint8, exact bool) {
	i := c.search(t)
	return uint8(i), i == c.NumBins || t <= c.Lower[i]
}

// QuantizeRow writes x's per-feature bin codes into dst using each
// column's CodeOf rule. Both slices must hold at least NumFeatures
// entries; the codes land at the feature's own index. It is
// allocation-free, so inference paths can reuse one scratch row.
//
//hddlint:noalloc
func (bm *BinnedMatrix) QuantizeRow(x []float64, dst []uint8) {
	for f := range bm.Cols {
		dst[f] = bm.Cols[f].CodeOf(x[f])
	}
}

// Quantize maps whole rows onto the matrix's code space: one uint8 row
// per input row, all backed by a single allocation so a quantized fleet
// block stays contiguous in memory (the working set is NumFeatures bytes
// per sample instead of 8·NumFeatures). Rows must carry at least
// NumFeatures values. The result feeds the binned inference engine
// (cart.CompileBinned and the detect binned scans).
func (bm *BinnedMatrix) Quantize(xs [][]float64) ([][]uint8, error) {
	for i := range xs {
		if len(xs[i]) < bm.NumFeatures {
			return nil, fmt.Errorf("dataset: quantize row %d has %d of %d features",
				i, len(xs[i]), bm.NumFeatures)
		}
	}
	flat := make([]uint8, len(xs)*bm.NumFeatures)
	out := make([][]uint8, len(xs))
	for i, row := range xs {
		dst := flat[i*bm.NumFeatures : (i+1)*bm.NumFeatures : (i+1)*bm.NumFeatures]
		bm.QuantizeRow(row, dst)
		out[i] = dst
	}
	return out, nil
}
