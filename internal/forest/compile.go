package forest

import (
	"math"

	"hddcart/internal/cart"
)

// Compiled is the inference-optimized form of a Forest: every member tree
// flattened into its cache-friendly cart.CompiledTree representation,
// scored one row at a time. All outputs are bit-identical to the
// pointer-tree Forest methods: per sample, tree predictions accumulate in
// tree order exactly as Forest.Predict does, so the float sums agree to
// the last bit. Compiled is immutable and safe for concurrent use.
type Compiled struct {
	// Trees are the compiled ensemble members, in training order.
	Trees []*cart.CompiledTree
	// Kind records classification vs regression.
	Kind cart.Kind
}

// Compile flattens every member tree.
func (f *Forest) Compile() *Compiled {
	c := &Compiled{Trees: make([]*cart.CompiledTree, len(f.Trees)), Kind: f.Kind}
	for i, t := range f.Trees {
		c.Trees[i] = t.Compile()
	}
	return c
}

// Predict returns the mean of tree predictions, bit-identical to
// Forest.Predict.
func (c *Compiled) Predict(x []float64) float64 {
	if len(c.Trees) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range c.Trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(c.Trees))
}

// PredictFailed reports whether the ensemble classifies x as failed.
func (c *Compiled) PredictFailed(x []float64) bool { return c.Predict(x) < 0 }

// ProbFailed returns the fraction of trees voting failed, bit-identical to
// Forest.ProbFailed.
func (c *Compiled) ProbFailed(x []float64) float64 {
	if len(c.Trees) == 0 {
		return math.NaN()
	}
	failed := 0
	for _, t := range c.Trees {
		if t.Predict(x) < 0 {
			failed++
		}
	}
	return float64(failed) / float64(len(c.Trees))
}
