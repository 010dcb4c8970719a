package cart

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// CompiledTree is the inference-optimized form of a Tree: the nodes
// flattened breadth-first into parallel struct-of-arrays storage (int32
// feature and child indices, float64 thresholds and leaf payloads) so a
// prediction is an iterative walk over a few contiguous cache lines
// instead of a pointer chase through heap-scattered Node structs, with no
// per-call allocation.
//
// Compilation never changes results: a CompiledTree evaluates exactly the
// comparisons of the source tree (x[feature] < threshold, in the same
// order) and returns the same leaf's Value/PFailed, so Predict and
// ProbFailed are bit-identical to the pointer path for every input. The
// equivalence tests and FuzzCompiledTreeEquivalence enforce this.
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
	// nodes); Threshold, Value and PFailed mirror the Node fields.
	Feature   []int32
	Left      []int32
	Right     []int32
	Threshold []float64
	Value     []float64
	PFailed   []float64

	// nodes is the packed hot-path mirror of the arrays above: one
	// 16-byte record per node, so each traversal step is a single cache
	// line touch instead of four bounds-checked array loads. It requires
	// the breadth-first sibling layout (Right[i] == Left[i]+1); Compile
	// always produces it, and Validate rebuilds it for hand-assembled
	// trees. leaf() falls back to the plain arrays when it is absent.
	nodes []packedNode
	// needLen is 1 + the largest feature index any split reads:
	// CompileBinned checks it against the code matrix's width.
	needLen int
}

// packedNode is one node of the hot traversal path. The right child is
// implicitly left+1 (breadth-first sibling adjacency). Every step is
// branch-free: i = left + (0 if x[feature] < threshold else 1). Leaves are
// encoded as self-loops — threshold NaN (every comparison is false, so the
// step always "goes right") with left = self−1, landing back on the leaf —
// so the traversal needs no leaf branch at all; a NaN threshold is also
// what marks arrival.
type packedNode struct {
	threshold float64
	feature   int32
	left      int32
}

// seal builds the packed hot-path mirror when the layout supports it
// (Compile output always does): sibling adjacency and no NaN thresholds on
// internal nodes, which would collide with the leaf encoding.
func (c *CompiledTree) seal() {
	for i := range c.Feature {
		if c.Feature[i] >= 0 && (c.Right[i] != c.Left[i]+1 || math.IsNaN(c.Threshold[i])) {
			return // keep the slow path for exotic hand-built layouts
		}
	}
	nodes := make([]packedNode, len(c.Feature))
	c.needLen = 0
	for i := range nodes {
		if c.Feature[i] < 0 {
			nodes[i] = packedNode{threshold: math.NaN(), feature: 0, left: int32(i) - 1}
			continue
		}
		nodes[i] = packedNode{threshold: c.Threshold[i], feature: c.Feature[i], left: c.Left[i]}
		if int(c.Feature[i]) >= c.needLen {
			c.needLen = int(c.Feature[i]) + 1
		}
	}
	c.nodes = nodes
}

// Compile flattens the tree into its inference-optimized form.
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
		PFailed:      make([]float64, 0, n),
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
		c.PFailed = append(c.PFailed, nd.PFailed)
		if !nd.IsLeaf() {
			c.Left[at] = int32(len(queue))
			queue = append(queue, nd.Left)
			c.Right[at] = int32(len(queue))
			queue = append(queue, nd.Right)
		}
	}
	c.seal()
	return c
}

// NumNodes returns the node count.
func (c *CompiledTree) NumNodes() int { return len(c.Feature) }

// leaf returns the index of the leaf x falls into. The packed walk is
// the scalar hot path; bcecheck holds it to the hand-elided contract
// (the PR that introduced the unsafe walk bought ~12% on it), so
// reintroducing a checked node load fails the lint run.
//
//hddlint:nobc
func (c *CompiledTree) leaf(x []float64) int {
	// len > 0 (not just non-nil) so the prove pass can kill the
	// &nodes[0] bounds check.
	if nodes := c.nodes; len(nodes) > 0 {
		base := unsafe.Pointer(&nodes[0])
		i := 0
		for {
			// Indexes come from the sealed layout (seal verified every
			// left/right child is in range), so the node load's bounds check
			// is provably dead and elided by hand.
			nd := (*packedNode)(unsafe.Add(base, uintptr(i)*unsafe.Sizeof(packedNode{})))
			thr := nd.threshold
			if thr != thr { // NaN: the leaf self-loop encoding
				return i
			}
			// Mirrors the pointer tree's x[f] < threshold branch exactly
			// (NaN inputs compare false, so they descend right there and
			// here alike). The feature load's check is load-bearing: x is
			// caller data, and eliding it by hand would turn a short row
			// into an out-of-bounds unsafe read instead of a panic.
			//hddlint:ignore bcecheck x[nd.feature] guards caller-provided rows; eliding it trades a panic for an OOB read
			if x[nd.feature] < thr {
				i = int(nd.left)
			} else {
				i = int(nd.left) + 1
			}
		}
	}
	// Inlining attributes the fallback's checks to this call line; they
	// are deliberate, so the contract exempts the call.
	//hddlint:ignore bcecheck the fallback array walk keeps every check on purpose; it is off the hot path
	return c.leafArrays(x)
}

// leafArrays is the fallback walk for hand-assembled trees without the
// packed mirror. It is off the hot path and carries no bounds-check
// contract: every index here is checked.
func (c *CompiledTree) leafArrays(x []float64) int {
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

// PredictFailed reports whether the tree labels x failed.
func (c *CompiledTree) PredictFailed(x []float64) bool { return c.Predict(x) < 0 }

// ProbFailed returns the weighted failed-class probability of x's leaf
// (classification trees; regression trees return NaN, as Tree.ProbFailed
// does).
func (c *CompiledTree) ProbFailed(x []float64) float64 {
	if c.Kind != Classification {
		return math.NaN()
	}
	return c.PFailed[c.leaf(x)]
}

// Validate checks the structural invariants a CompiledTree needs for safe
// traversal (children in range and after their parent, feature indices
// within NumFeatures). Compile always produces a valid tree; Validate
// guards trees assembled by hand or decoded from external data.
func (c *CompiledTree) Validate() error {
	n := len(c.Feature)
	if len(c.Left) != n || len(c.Right) != n || len(c.Threshold) != n ||
		len(c.Value) != n || len(c.PFailed) != n {
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
	if c.nodes == nil {
		c.seal()
	}
	return nil
}
