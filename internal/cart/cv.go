package cart

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"hddcart/internal/par"
)

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		Kind:         t.Kind,
		NumFeatures:  t.NumFeatures,
		FeatureNames: append([]string(nil), t.FeatureNames...),
	}
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		if n == nil {
			return nil
		}
		c := *n
		c.Left = cp(n.Left)
		c.Right = cp(n.Right)
		return &c
	}
	out.Root = cp(t.Root)
	return out
}

// CPEntry is one level of the nested pruning sequence.
type CPEntry struct {
	// CP is the complexity threshold that produces this tree size
	// (pruning with any cp in (CP, nextCP] yields the same tree).
	CP float64
	// Leaves and Nodes are the resulting tree size.
	Leaves, Nodes int
}

// CPTable returns the tree's nested pruning sequence, from the tree as-is
// (CP 0) up to a lone root — the rpart-style table operators use to pick a
// complexity parameter. Entries are strictly decreasing in size.
func (t *Tree) CPTable() []CPEntry {
	// Collect distinct split gains.
	gains := map[float64]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		gains[n.Gain] = true
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	sorted := make([]float64, 0, len(gains))
	for g := range gains {
		sorted = append(sorted, g)
	}
	sort.Float64s(sorted)

	var out []CPEntry
	record := func(cp float64) {
		work := t.Clone()
		Prune(work, cp)
		e := CPEntry{CP: cp, Leaves: work.NumLeaves(), Nodes: work.NumNodes()}
		if len(out) == 0 || out[len(out)-1].Nodes != e.Nodes {
			out = append(out, e)
		}
	}
	record(0)
	for _, g := range sorted {
		record(nextAfter(g))
	}
	return out
}

// nextAfter nudges a gain up so pruning strictly removes splits at that
// gain.
func nextAfter(g float64) float64 {
	return g * (1 + 1e-12)
}

// CVResult is one evaluated complexity parameter.
type CVResult struct {
	// CP is the candidate threshold.
	CP float64
	// Loss is the mean held-out loss: the weighted misclassification
	// cost (classification, honouring the loss matrix) or the weighted
	// squared error (regression), per unit weight.
	Loss float64
}

// CrossValidateCP estimates the held-out loss of each candidate CP by
// k-fold cross-validation and returns the evaluated list (sorted as given)
// plus the best CP. This is how the paper's CP = 0.001 style of setting
// would be derived from data rather than convention.
//
// Folds are independent, so they train and score concurrently on up to
// p.Workers goroutines. Each fold accumulates into its own loss/weight
// arrays which merge in fold order afterwards, so the returned losses are
// bit-identical for every worker count (the serial loop visited folds in
// the same order). Every fold honours p.MaxBins, so binned training can
// be cross-validated exactly like the exact path (each fold re-bins its
// own training split — bins are a function of the split's values).
func CrossValidateCP(x [][]float64, y, w []float64, p Params, kind Kind,
	folds int, cps []float64, seed int64) ([]CVResult, float64, error) {
	if folds < 2 {
		return nil, 0, fmt.Errorf("cart: need ≥ 2 folds, got %d", folds)
	}
	if len(cps) == 0 {
		return nil, 0, errors.New("cart: no candidate CPs")
	}
	if len(x) < folds {
		return nil, 0, fmt.Errorf("cart: %d samples cannot fill %d folds", len(x), folds)
	}
	if w == nil {
		w = make([]float64, len(x))
		for i := range w {
			w[i] = 1
		}
	}
	p = p.withDefaults()
	if p.Workers < 0 {
		return nil, 0, fmt.Errorf("cart: negative Workers %d", p.Workers)
	}

	// Shuffled fold assignment from a single pre-parallel stream; every
	// fold then works from this one immutable array, so no RNG is shared
	// across concurrent work.
	rng := rand.New(rand.NewSource(seed))
	fold := make([]int, len(x))
	for i := range fold {
		fold[i] = i % folds
	}
	rng.Shuffle(len(fold), func(i, j int) { fold[i], fold[j] = fold[j], fold[i] })

	// Concurrent folds split the worker budget so total goroutines stay
	// bounded by p.Workers regardless of fold count.
	outer := min(p.Workers, folds)
	inner := max(p.Workers/outer, 1)

	results := make([]foldResult, folds)
	par.For(folds, outer, func(f int) {
		results[f] = runFold(x, y, w, fold, f, p, kind, cps, inner)
	})

	losses := make([]float64, len(cps))
	weights := make([]float64, len(cps))
	for f := 0; f < folds; f++ {
		if results[f].err != nil {
			return nil, 0, fmt.Errorf("cart: CV fold %d: %w", f, results[f].err)
		}
		for ci := range cps {
			losses[ci] += results[f].losses[ci]
			weights[ci] += results[f].weights[ci]
		}
	}

	out := make([]CVResult, len(cps))
	bestIdx := 0
	for i, cp := range cps {
		loss := losses[i]
		if weights[i] > 0 {
			loss /= weights[i]
		}
		out[i] = CVResult{CP: cp, Loss: loss}
		if loss < out[bestIdx].Loss {
			bestIdx = i
		}
	}
	return out, out[bestIdx].CP, nil
}

// foldResult carries one fold's per-candidate loss and weight partials.
type foldResult struct {
	losses, weights []float64
	err             error
}

// runFold trains one fold's tree and scores every candidate CP on the
// held-out samples. Empty folds (possible with extreme fold counts)
// return zero partials, matching the serial loop's `continue`.
func runFold(x [][]float64, y, w []float64, fold []int, f int,
	p Params, kind Kind, cps []float64, workers int) foldResult {
	res := foldResult{
		losses:  make([]float64, len(cps)),
		weights: make([]float64, len(cps)),
	}
	var tx [][]float64
	var ty, tw []float64
	var vi []int
	for i := range x {
		if fold[i] == f {
			vi = append(vi, i)
		} else {
			tx = append(tx, x[i])
			ty = append(ty, y[i])
			tw = append(tw, w[i])
		}
	}
	if len(vi) == 0 || len(tx) == 0 {
		return res
	}
	// Grow once with minimal pruning, then prune per candidate.
	grow := p
	grow.CP = 1e-12
	grow.Workers = workers
	var full *Tree
	var err error
	if kind == Classification {
		full, err = TrainClassifier(tx, ty, tw, grow)
	} else {
		full, err = TrainRegressor(tx, ty, tw, grow)
	}
	if err != nil {
		res.err = err
		return res
	}
	for ci, cp := range cps {
		work := full.Clone()
		Prune(work, cp)
		for _, i := range vi {
			pred := work.Predict(x[i])
			switch kind {
			case Classification:
				if !sameLabel(pred, y[i]) {
					cost := p.LossMiss
					if y[i] > 0 {
						cost = p.LossFA // good sample flagged failed
					}
					res.losses[ci] += w[i] * cost
				}
			default:
				d := pred - y[i]
				res.losses[ci] += w[i] * d * d
			}
			res.weights[ci] += w[i]
		}
	}
	return res
}
