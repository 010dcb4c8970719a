package forest

import "hddcart/internal/cart"

// Compiled is a Forest with every member tree flattened into its
// cart.CompiledTree array form: the input CompileBinned remaps onto a
// binned matrix's code space. Float rows score through Forest.Predict.
// Compiled is immutable and safe for concurrent use.
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
