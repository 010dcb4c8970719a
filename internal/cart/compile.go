package cart

import (
	"errors"
	"fmt"
)

// CompiledTree is a Tree flattened breadth-first into parallel
// struct-of-arrays storage (int32 feature and child indices, float64
// thresholds and leaf payloads): the layout CompileBinned remaps onto a
// binned matrix's code space. Its Predict walks the arrays with every
// index checked and is the reference that layout is tested against;
// float rows score fastest through the source Tree's own Predict.
//
// Compilation never changes results: a CompiledTree evaluates exactly the
// comparisons of the source tree (x[feature] < threshold, in the same
// order) and returns the same leaf's Value, so Predict is bit-identical
// to the pointer path for every input. The equivalence tests and
// FuzzCompiledTreeEquivalence enforce this.
//
// CompiledTree is immutable after Compile and safe for concurrent use.
type CompiledTree struct {
	// Kind records classification vs regression.
	Kind Kind
	// NumFeatures is the expected feature-vector length.
	NumFeatures int
	// FeatureNames optionally labels features (copied from the source).
	FeatureNames []string

	// Node arrays, root at index 0, children after their parent
	// (breadth-first). Feature[i] is the split feature of node i, or -1
	// for a leaf; Left/Right are node indices (valid only for internal
	// nodes); Threshold and Value mirror the Node fields.
	Feature   []int32
	Left      []int32
	Right     []int32
	Threshold []float64
	Value     []float64
}

// Compile flattens the tree into its breadth-first array form.
func (t *Tree) Compile() *CompiledTree {
	n := t.NumNodes()
	c := &CompiledTree{
		Kind:         t.Kind,
		NumFeatures:  t.NumFeatures,
		FeatureNames: t.FeatureNames,
		Feature:      make([]int32, 0, n),
		Left:         make([]int32, 0, n),
		Right:        make([]int32, 0, n),
		Threshold:    make([]float64, 0, n),
		Value:        make([]float64, 0, n),
	}
	if t.Root == nil {
		return c
	}
	// Breadth-first layout keeps the heavily-traversed top levels of the
	// tree adjacent in memory.
	queue := make([]*Node, 0, n)
	queue = append(queue, t.Root)
	for at := 0; at < len(queue); at++ {
		nd := queue[at]
		feat := int32(-1)
		if !nd.IsLeaf() {
			feat = int32(nd.Feature)
		}
		c.Feature = append(c.Feature, feat)
		c.Left = append(c.Left, -1)
		c.Right = append(c.Right, -1)
		c.Threshold = append(c.Threshold, nd.Threshold)
		c.Value = append(c.Value, nd.Value)
		if !nd.IsLeaf() {
			c.Left[at] = int32(len(queue))
			queue = append(queue, nd.Left)
			c.Right[at] = int32(len(queue))
			queue = append(queue, nd.Right)
		}
	}
	return c
}

// NumNodes returns the node count.
func (c *CompiledTree) NumNodes() int { return len(c.Feature) }

// leaf returns the index of the leaf x falls into. Every index is
// checked: the flat arrays are the layout CompileBinned reads, and this
// walk is their float reference, not a hot path.
func (c *CompiledTree) leaf(x []float64) int {
	feat, thr := c.Feature, c.Threshold
	left, right := c.Left, c.Right
	i := 0
	for {
		f := feat[i]
		if f < 0 {
			return i
		}
		if x[f] < thr[i] {
			i = int(left[i])
		} else {
			i = int(right[i])
		}
	}
}

// Predict returns the tree's output for x, bit-identical to the source
// Tree.Predict.
func (c *CompiledTree) Predict(x []float64) float64 {
	return c.Value[c.leaf(x)]
}

// Validate checks the structural invariants a CompiledTree needs for safe
// traversal (children in range and after their parent, feature indices
// within NumFeatures). Compile always produces a valid tree; Validate
// guards trees assembled by hand or decoded from external data.
func (c *CompiledTree) Validate() error {
	n := len(c.Feature)
	if len(c.Left) != n || len(c.Right) != n || len(c.Threshold) != n ||
		len(c.Value) != n {
		return errors.New("cart: compiled tree has ragged node arrays")
	}
	if n == 0 {
		return errors.New("cart: compiled tree has no nodes")
	}
	for i := 0; i < n; i++ {
		if c.Feature[i] < 0 {
			continue // leaf
		}
		if int(c.Feature[i]) >= c.NumFeatures {
			return fmt.Errorf("cart: compiled node %d splits on feature %d of %d",
				i, c.Feature[i], c.NumFeatures)
		}
		for _, child := range [2]int32{c.Left[i], c.Right[i]} {
			if child <= int32(i) || child >= int32(n) {
				return fmt.Errorf("cart: compiled node %d has bad child index %d", i, child)
			}
		}
	}
	return nil
}
