package boost

import (
	"fmt"
	"sync"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
)

// Binned is the binned-code inference form of a Compiled ensemble: every
// weak learner remapped onto one dataset.BinnedMatrix's code space
// (cart.CompiledTree.CompileBinned), scoring quantized uint8 rows. Per
// sample the alpha-weighted scores and the alpha total accumulate in
// learner order exactly as the float paths do, so wherever the learners'
// binned scores match their float scores (see the BinnedTree equivalence
// contract) the ensemble outputs are bit-identical too. Binned is
// immutable and safe for concurrent use.
type Binned struct {
	// Trees are the binned weak learners, in training order.
	Trees []*cart.BinnedTree
	// Alphas are the learner weights.
	Alphas []float64
	// Exact reports whether every learner compiled exactly (no split
	// threshold straddles a bin's value range).
	Exact bool
}

// CompileBinned remaps every weak learner onto bm's code space.
func (c *Compiled) CompileBinned(bm *dataset.BinnedMatrix) (*Binned, error) {
	b := &Binned{
		Trees:  make([]*cart.BinnedTree, len(c.Trees)),
		Alphas: append([]float64(nil), c.Alphas...),
		Exact:  true,
	}
	for i, t := range c.Trees {
		bt, err := t.CompileBinned(bm)
		if err != nil {
			return nil, fmt.Errorf("boost: learner %d: %w", i, err)
		}
		if !bt.Exact {
			b.Exact = false
		}
		b.Trees[i] = bt
	}
	return b, nil
}

// Predict returns the weighted vote balance in [−1, +1] (negative =
// failed) for one quantized row, folding in learner order like
// Ensemble.Predict.
func (b *Binned) Predict(codes []uint8) float64 {
	var score, total float64
	for i, t := range b.Trees {
		score += b.Alphas[i] * t.Predict(codes)
		total += b.Alphas[i]
	}
	if exactZero(total) {
		return 0
	}
	return score / total
}

// PredictFailed reports whether the ensemble classifies the row as failed.
func (b *Binned) PredictFailed(codes []uint8) bool { return b.Predict(codes) < 0 }

// binnedTileScores pools the per-learner scratch PredictTiledRange folds
// through, keyed to the caller's range length.
var binnedTileScores = sync.Pool{New: func() any { return new([]float64) }}

// PredictTiledRange scores rows [lo, hi) of a feature-major tiled code
// matrix into dst[:hi-lo], bit-identical to Predict on each row: every
// learner's alpha-weighted score and the alpha total fold in learner
// order per sample. dst must hold at least hi-lo entries. This makes
// Binned an internal/sweep TiledPredictor.
//
//hddlint:noalloc
func (b *Binned) PredictTiledRange(tm *dataset.TiledMatrix, lo, hi int, dst []float64) {
	dst = dst[:hi-lo]
	for i := range dst {
		dst[i] = 0
	}
	if len(dst) == 0 {
		return
	}
	var total float64
	tp := binnedTileScores.Get().(*[]float64)
	if cap(*tp) < len(dst) {
		//hddlint:ignore hotalloc cold path: pooled scratch grows to the high-water range length once, then every Get reuses it
		*tp = make([]float64, len(dst))
	}
	tmp := (*tp)[:len(dst)]
	for j, t := range b.Trees {
		t.PredictTiledRange(tm, lo, hi, tmp)
		a := b.Alphas[j]
		for i, v := range tmp {
			dst[i] += a * v
		}
		total += a
	}
	binnedTileScores.Put(tp)
	if exactZero(total) {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i := range dst {
		dst[i] /= total
	}
}
