package cart

import (
	"errors"
	"fmt"
	"math"

	"hddcart/internal/dataset"
)

// BinnedTree is the binned-code inference form of a CompiledTree: every
// split threshold remapped onto a dataset.BinnedMatrix's uint8 code space
// (dataset.BinnedColumn.CutFor), so scoring runs entirely on quantized
// rows — one byte per feature instead of eight, byte compares in the
// partition kernels, and the reserved missing code routing right at every
// split exactly as NaN does on the float path.
//
// Equivalence contract: for any input whose finite values lie inside
// their bin's [Lower, Upper] value range ("binned data" — every row of
// the matrix the binning was built from qualifies), a BinnedTree with
// Exact set scores bit-identically to its source CompiledTree, verdicts
// and probabilities alike. Trees trained with Params.MaxBins on the same
// matrix score their whole training corpus bit-identically even when
// Exact is false: a threshold only straddles bins no corpus sample
// carries at that node, so the straddled comparison is never evaluated.
// The internal/equiv harness and FuzzBinnedInferenceEquivalence enforce
// both halves.
//
// BinnedTree is immutable after CompileBinned and safe for concurrent
// use.
type BinnedTree struct {
	// Kind records classification vs regression.
	Kind Kind
	// NumFeatures is the expected code-row length (the matrix width).
	NumFeatures int

	// Node arrays, laid out exactly as the source CompiledTree's (root at
	// 0, breadth-first sibling adjacency). Cut replaces Threshold: node i
	// routes a sample left when codes[Feature[i]] < Cut[i].
	Feature []int32
	Left    []int32
	Right   []int32
	Cut     []uint8
	Value   []float64
	PFailed []float64

	// Exact reports whether every split threshold cleanly separated the
	// matrix's bins (dataset.BinnedColumn.CutFor): when set, binned
	// scores match the float path on all bin-representative inputs, not
	// just the training corpus.
	Exact bool

	// nodes is the packed hot-path mirror: one 12-byte record per node.
	// Leaves carry feature −1; internal nodes rely on the sibling
	// adjacency (right child = left+1) the source layout guarantees.
	nodes []binnedNode
	// needLen is 1 + the largest feature index any split reads.
	needLen int
}

// binnedNode is one node of the binned hot traversal path: the step is
// i = left + (0 if codes[feature] < cut else 1), and feature < 0 marks a
// leaf.
type binnedNode struct {
	left    int32
	feature int32
	cut     uint8
}

// CompileBinned remaps the tree's split thresholds onto bm's code space.
// The tree must have the sealed breadth-first layout Compile produces
// (Validate re-seals hand-assembled trees that conform) and must not
// split on features beyond bm's width. Thresholds that fall strictly
// inside a bin's value range cannot be represented by any cut; they
// compile to the conservative "first bin not entirely below the
// threshold routes right" rule and clear Exact.
func (c *CompiledTree) CompileBinned(bm *dataset.BinnedMatrix) (*BinnedTree, error) {
	if bm == nil {
		return nil, errors.New("cart: CompileBinned needs a binned matrix")
	}
	if c.nodes == nil {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("cart: CompileBinned: %w", err)
		}
		if c.nodes == nil {
			return nil, errors.New("cart: CompileBinned requires the sealed breadth-first layout Compile produces")
		}
	}
	if c.needLen > bm.NumFeatures {
		return nil, fmt.Errorf("cart: tree reads feature %d but matrix has %d columns",
			c.needLen-1, bm.NumFeatures)
	}
	n := len(c.Feature)
	bt := &BinnedTree{
		Kind:        c.Kind,
		NumFeatures: bm.NumFeatures,
		Feature:     c.Feature,
		Left:        c.Left,
		Right:       c.Right,
		Cut:         make([]uint8, n),
		Value:       c.Value,
		PFailed:     c.PFailed,
		Exact:       true,
		nodes:       make([]binnedNode, n),
		needLen:     c.needLen,
	}
	for i := 0; i < n; i++ {
		if c.Feature[i] < 0 {
			bt.nodes[i] = binnedNode{feature: -1}
			continue
		}
		t := c.Threshold[i]
		var cut uint8
		if math.IsNaN(t) {
			// x < NaN is false for every value, so the float node routes
			// everything right; cut 0 reproduces that (no code is < 0).
			cut = 0
		} else {
			var exact bool
			cut, exact = bm.Cols[c.Feature[i]].CutFor(t)
			if !exact {
				bt.Exact = false
			}
		}
		bt.Cut[i] = cut
		bt.nodes[i] = binnedNode{left: c.Left[i], feature: c.Feature[i], cut: cut}
	}
	return bt, nil
}

// NumNodes returns the node count.
func (bt *BinnedTree) NumNodes() int { return len(bt.Feature) }

// leaf returns the index of the leaf the code row falls into.
//
//hddlint:binned
func (bt *BinnedTree) leaf(codes []uint8) int {
	nodes := bt.nodes
	i := 0
	for {
		nd := &nodes[i]
		f := nd.feature
		if f < 0 {
			return i
		}
		// Mirrors the float tree's x[f] < threshold branch in code space:
		// the reserved missing code is ≥ every cut, so it descends right
		// exactly as NaN does there.
		if codes[f] < nd.cut {
			i = int(nd.left)
		} else {
			i = int(nd.left) + 1
		}
	}
}

// Predict returns the tree's output for one quantized row.
func (bt *BinnedTree) Predict(codes []uint8) float64 {
	return bt.Value[bt.leaf(codes)]
}

// PredictFailed reports whether the tree labels the row failed.
func (bt *BinnedTree) PredictFailed(codes []uint8) bool { return bt.Predict(codes) < 0 }

// ProbFailed returns the weighted failed-class probability of the row's
// leaf (classification trees; regression trees return NaN, as the float
// paths do).
func (bt *BinnedTree) ProbFailed(codes []uint8) float64 {
	if bt.Kind != Classification {
		return math.NaN()
	}
	return bt.PFailed[bt.leaf(codes)]
}
