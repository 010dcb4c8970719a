package boost

import "hddcart/internal/cart"

// Compiled is the inference-optimized form of an Ensemble: every weak
// learner flattened into its cart.CompiledTree representation, scored
// one row at a time. Outputs are bit-identical to
// Ensemble.Predict: per sample the alpha-weighted scores and the alpha
// total accumulate in learner order, exactly as the pointer path does.
// Compiled is immutable and safe for concurrent use.
type Compiled struct {
	// Trees are the compiled weak learners, in training order.
	Trees []*cart.CompiledTree
	// Alphas are the learner weights.
	Alphas []float64
}

// Compile flattens every weak learner.
func (e *Ensemble) Compile() *Compiled {
	c := &Compiled{
		Trees:  make([]*cart.CompiledTree, len(e.Trees)),
		Alphas: append([]float64(nil), e.Alphas...),
	}
	for i, t := range e.Trees {
		c.Trees[i] = t.Compile()
	}
	return c
}

// Predict returns the weighted vote balance in [−1, +1] (negative =
// failed), bit-identical to Ensemble.Predict.
func (c *Compiled) Predict(x []float64) float64 {
	var score, total float64
	for i, t := range c.Trees {
		score += c.Alphas[i] * t.Predict(x)
		total += c.Alphas[i]
	}
	if exactZero(total) {
		return 0
	}
	return score / total
}

// PredictFailed reports whether the ensemble classifies x as failed.
func (c *Compiled) PredictFailed(x []float64) bool { return c.Predict(x) < 0 }
