package boost

import "hddcart/internal/cart"

// Compiled is an Ensemble with every weak learner flattened into its
// cart.CompiledTree array form: the input CompileBinned remaps onto a
// binned matrix's code space. Float rows score through Ensemble.Predict.
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
