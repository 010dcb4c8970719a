// Package cart implements Classification and Regression Trees as described
// in the paper's §III (Algorithms 1 and 2): binary recursive partitioning
// with information-gain splits for classification and sum-of-squares splits
// for regression, Minsplit/Minbucket stopping rules, complexity-parameter
// pruning, per-sample weights (used to boost the failed class to a target
// share) and asymmetric misclassification losses (used to penalize false
// alarms 10×).
//
// Unlike black-box models, trees are interpretable: Rules extracts the
// failure regulations, VariableImportance ranks attributes, and String
// renders the tree like the paper's Figure 1.
package cart

import (
	"fmt"
	"runtime"
	"strings"
)

// Kind distinguishes classification from regression trees.
type Kind int

const (
	// Classification trees predict ±1 class labels (+1 good, −1 failed).
	Classification Kind = iota + 1
	// Regression trees predict real-valued targets (health degrees).
	Regression
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Classification:
		return "classification"
	case Regression:
		return "regression"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params are the training hyper-parameters. The zero value is replaced by
// the paper's defaults (§V-A2): MinSplit 20, MinBucket 7, CP 0.001.
type Params struct {
	// MinSplit is the minimum number of samples a node must hold to be
	// considered for splitting.
	MinSplit int
	// MinBucket is the minimum number of samples in any leaf.
	MinBucket int
	// CP is the complexity parameter: the minimum relative gain
	// (node-weighted impurity decrease divided by the root's total
	// impurity) a split must achieve to survive pruning.
	CP float64
	// MaxDepth bounds tree depth as a safety stop. Default 30.
	MaxDepth int
	// LossFA is the misclassification loss of a false alarm (labelling
	// a good sample failed). The paper uses 10 for the CT model.
	// Default 1.
	LossFA float64
	// LossMiss is the loss of a missed detection. Default 1.
	LossMiss float64
	// MTry, when in (0, numFeatures), restricts every split search to a
	// fresh random sample of MTry features — the randomization that
	// turns bagged trees into a random forest (the paper's future work).
	// 0 (the default) searches all features.
	MTry int
	// Seed drives the MTry feature sampling; unused when MTry is 0.
	Seed int64
	// MaxBins, when positive, switches training to the histogram-binned
	// grower: every feature is quantized once into at most MaxBins
	// deterministic quantile bins (≤ 255; NaN/missing values get a
	// reserved bin that always routes right, matching inference), split
	// search scans bin histograms instead of raw samples, and each
	// sibling's histogram is derived from its parent's by subtraction so
	// only the smaller child is re-scanned. 0 (the default) keeps the
	// exact presorted-column search. The binned grower upholds the same
	// determinism guarantee as the exact one — at a fixed MaxBins the
	// grown tree is bit-identical for any Workers count — and whenever a
	// feature has at most MaxBins distinct finite values its bins are
	// singletons, so the binned search evaluates exactly the
	// distinct-value boundaries the exact search evaluates, with
	// bitwise-identical thresholds.
	MaxBins int
	// Workers bounds training parallelism: split searches fan out across
	// features and independent subtrees grow concurrently on a pool of
	// this many goroutines. 0 defaults to runtime.GOMAXPROCS(0); 1 runs the
	// serial path. Training is deterministic: for any worker count the
	// grown tree (splits, thresholds, leaf values, prune sequence) is
	// bit-identical to the Workers=1 result, because per-feature split
	// searches are independent and the cross-feature reduction breaks
	// ties by feature order exactly as the serial scan does.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.MinSplit == 0 {
		p.MinSplit = 20
	}
	if p.MinBucket == 0 {
		p.MinBucket = 7
	}
	if exactZero(p.CP) {
		p.CP = 0.001
	}
	if p.MaxDepth == 0 {
		p.MaxDepth = 30
	}
	if exactZero(p.LossFA) {
		p.LossFA = 1
	}
	if exactZero(p.LossMiss) {
		p.LossMiss = 1
	}
	if p.Workers == 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// Node is one tree node. Leaves have nil children.
type Node struct {
	// Feature and Threshold define the split: samples with
	// x[Feature] < Threshold go Left, the rest go Right. Valid only for
	// internal nodes.
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node

	// Value is the node's prediction: the loss-weighted class label
	// (±1) for classification, the weighted target mean for regression.
	Value float64
	// PFailed is the weighted failed-class probability at the node
	// (classification only).
	PFailed float64
	// N is the unweighted sample count at the node.
	N int
	// W is the total sample weight at the node.
	W float64
	// Gain is the relative impurity decrease achieved by this node's
	// split (0 for leaves); the quantity compared against CP.
	Gain float64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a trained classification or regression tree.
type Tree struct {
	// Root is the tree's root node.
	Root *Node
	// Kind records whether the tree classifies or regresses.
	Kind Kind
	// NumFeatures is the expected feature-vector length.
	NumFeatures int
	// FeatureNames optionally labels features for printing and rules.
	FeatureNames []string
}

// leaf returns the leaf x falls into.
func (t *Tree) leaf(x []float64) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Feature] < n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Predict returns the tree's output for x: the class label (+1 good,
// −1 failed) for classification trees, the predicted target value for
// regression trees.
func (t *Tree) Predict(x []float64) float64 {
	return t.leaf(x).Value
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Depth returns the maximum depth (a lone root has depth 1).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil {
		return 0
	}
	d := depth(n.Left)
	if r := depth(n.Right); r > d {
		d = r
	}
	return d + 1
}

// VariableImportance sums each feature's relative impurity decrease over
// all splits that use it — the standard CART importance measure. The
// result has NumFeatures entries.
func (t *Tree) VariableImportance() []float64 {
	imp := make([]float64, t.NumFeatures)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		imp[n.Feature] += n.Gain
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return imp
}

// Condition is one comparison along a rule path.
type Condition struct {
	Feature   int
	Threshold float64
	// Less is true for "feature < threshold", false for "≥".
	Less bool
}

// String renders the condition using the tree's feature names if present.
func (c Condition) string(names []string) string {
	name := fmt.Sprintf("x[%d]", c.Feature)
	if c.Feature < len(names) {
		name = names[c.Feature]
	}
	op := "≥"
	if c.Less {
		op = "<"
	}
	return fmt.Sprintf("%s %s %.4g", name, op, c.Threshold)
}

// Rule is one root-to-leaf path of the tree: the conjunction of Conditions
// implies the leaf's prediction. Rules are how operators read failure
// causes out of the model (paper §V-B1).
type Rule struct {
	Conditions []Condition
	// Value is the leaf prediction; PFailed its failed probability
	// (classification only); N/W its sample count and weight.
	Value   float64
	PFailed float64
	N       int
	W       float64
}

// String renders the rule using the given feature names.
func (r Rule) String(names []string) string {
	if len(r.Conditions) == 0 {
		return fmt.Sprintf("always → %.3g", r.Value)
	}
	parts := make([]string, len(r.Conditions))
	for i, c := range r.Conditions {
		parts[i] = c.string(names)
	}
	return fmt.Sprintf("%s → %.3g", strings.Join(parts, " ∧ "), r.Value)
}

// Rules returns every root-to-leaf path. With failedOnly, only leaves that
// predict failure (Value < 0) are returned.
func (t *Tree) Rules(failedOnly bool) []Rule {
	var rules []Rule
	var walk func(n *Node, path []Condition)
	walk = func(n *Node, path []Condition) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			if failedOnly && n.Value >= 0 {
				return
			}
			rules = append(rules, Rule{
				Conditions: append([]Condition(nil), path...),
				Value:      n.Value, PFailed: n.PFailed, N: n.N, W: n.W,
			})
			return
		}
		walk(n.Left, append(path, Condition{n.Feature, n.Threshold, true}))
		walk(n.Right, append(path, Condition{n.Feature, n.Threshold, false}))
	}
	walk(t.Root, nil)
	return rules
}

// String renders the tree in an indented form similar to the paper's
// Figure 1.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, prefix string, label string)
	walk = func(n *Node, prefix, label string) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			switch t.Kind {
			case Classification:
				class := "good"
				if n.Value < 0 {
					class = "FAILED"
				}
				fmt.Fprintf(&b, "%s%s%s (p_failed=%.2f, n=%d)\n", prefix, label, class, n.PFailed, n.N)
			default:
				fmt.Fprintf(&b, "%s%svalue=%.3f (n=%d)\n", prefix, label, n.Value, n.N)
			}
			return
		}
		name := fmt.Sprintf("x[%d]", n.Feature)
		if n.Feature < len(t.FeatureNames) {
			name = t.FeatureNames[n.Feature]
		}
		fmt.Fprintf(&b, "%s%s%s < %.4g? (n=%d, gain=%.4f)\n", prefix, label, name, n.Threshold, n.N, n.Gain)
		walk(n.Left, prefix+"  ", "yes: ")
		walk(n.Right, prefix+"  ", "no:  ")
	}
	walk(t.Root, "", "")
	return b.String()
}
