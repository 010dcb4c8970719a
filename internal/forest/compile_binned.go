package forest

import (
	"fmt"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
)

// Binned is the binned-code inference form of a Compiled forest: every
// member tree remapped onto one dataset.BinnedMatrix's code space
// (cart.CompiledTree.CompileBinned), scoring quantized uint8 rows. Per
// sample the member predictions fold in tree order and divide by the
// tree count exactly as the float paths do, so wherever the member
// trees' binned scores match their float scores (see the BinnedTree
// equivalence contract) the ensemble outputs are bit-identical too.
// Binned is immutable and safe for concurrent use.
type Binned struct {
	// Trees are the binned ensemble members, in training order.
	Trees []*cart.BinnedTree
	// Kind records classification vs regression.
	Kind cart.Kind
	// Exact reports whether every member compiled exactly (no split
	// threshold straddles a bin's value range).
	Exact bool
}

// CompileBinned remaps every member tree onto bm's code space.
func (c *Compiled) CompileBinned(bm *dataset.BinnedMatrix) (*Binned, error) {
	b := &Binned{Trees: make([]*cart.BinnedTree, len(c.Trees)), Kind: c.Kind, Exact: true}
	for i, t := range c.Trees {
		bt, err := t.CompileBinned(bm)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		if !bt.Exact {
			b.Exact = false
		}
		b.Trees[i] = bt
	}
	return b, nil
}

// Predict returns the mean of tree predictions for one quantized row,
// folding in tree order like Forest.Predict.
func (b *Binned) Predict(codes []uint8) float64 {
	if len(b.Trees) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range b.Trees {
		sum += t.Predict(codes)
	}
	return sum / float64(len(b.Trees))
}

// PredictTiledRange scores rows [lo, hi) of a feature-major tiled code
// matrix into dst[:hi-lo], bit-identical to Predict on each row: member
// predictions accumulate in tree order per sample, then divide by the
// tree count. dst must hold at least hi-lo entries. This makes Binned an
// internal/sweep TiledPredictor.
//
//hddlint:noalloc
func (b *Binned) PredictTiledRange(tm *dataset.TiledMatrix, lo, hi int, dst []float64) {
	dst = dst[:hi-lo]
	for i := range dst {
		dst[i] = 0
	}
	if len(b.Trees) == 0 {
		return
	}
	cart.AccumulateTiledRange(b.Trees, tm, lo, hi, dst)
	nt := float64(len(b.Trees))
	for i, v := range dst {
		dst[i] = v / nt
	}
}
