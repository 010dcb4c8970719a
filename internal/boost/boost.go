// Package boost implements AdaBoost.M1 over shallow CART trees. The
// paper's §V cites the authors' earlier finding that AdaBoost "does not
// provide significant performance improvement and is much more
// computationally expensive" than the plain model — this package lets the
// reproduction test that claim on the synthetic fleet (see the boost
// experiment and benchmark).
package boost

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"hddcart/internal/cart"
	"hddcart/internal/par"
)

// Config holds the boosting hyper-parameters.
type Config struct {
	// Rounds is the number of boosting iterations. Default 30.
	Rounds int
	// MaxDepth bounds each weak learner (default 3 — stumps are too weak
	// for 13-feature SMART data, full trees defeat boosting).
	MaxDepth int
	// Params are the remaining CART parameters for the weak learners.
	// Params.MaxBins selects histogram-binned growth for every round's
	// tree (the bins are recomputed per round because boosting reweights
	// samples, but quantization depends only on feature values).
	Params cart.Params
	// Workers bounds the per-round parallelism: each round's tree grows
	// on a cart worker pool of this size and the round's training-set
	// scoring fans out across it. Rounds themselves are inherently
	// sequential (each reweights from the last). 0 = runtime.GOMAXPROCS(0).
	// The ensemble is bit-identical for any worker count: per-sample
	// predictions parallelize but the weighted-error and reweighting
	// sums always accumulate in sample order.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 30
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Ensemble is a trained AdaBoost classifier.
type Ensemble struct {
	// Trees are the weak learners.
	Trees []*cart.Tree
	// Alphas are the learner weights.
	Alphas []float64
}

// Train fits AdaBoost.M1 on ±1 targets. Initial sample weights (nil = all
// 1) let callers keep the paper's failed-class boosting. Training stops
// early when a learner reaches zero weighted error (the data is separable)
// or when the weighted error hits 0.5 (no learnable signal remains).
func Train(x [][]float64, y, w []float64, cfg Config) (*Ensemble, error) {
	if len(x) == 0 {
		return nil, errors.New("boost: empty training set")
	}
	if len(y) != len(x) {
		return nil, fmt.Errorf("boost: %d samples but %d targets", len(x), len(y))
	}
	if w != nil && len(w) != len(x) {
		return nil, fmt.Errorf("boost: %d samples but %d weights", len(x), len(w))
	}
	cfg = cfg.withDefaults()
	params := cfg.Params
	params.MaxDepth = cfg.MaxDepth
	params.Workers = cfg.Workers

	n := len(x)
	dist := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		if w != nil {
			dist[i] = w[i]
		} else {
			dist[i] = 1
		}
		total += dist[i]
	}
	if total <= 0 {
		return nil, errors.New("boost: zero total weight")
	}
	for i := range dist {
		dist[i] /= total
	}

	e := &Ensemble{}
	mis := make([]bool, n)
	for round := 0; round < cfg.Rounds; round++ {
		tree, err := cart.TrainClassifier(x, y, dist, params)
		if err != nil {
			return nil, fmt.Errorf("boost: round %d: %w", round, err)
		}
		// Score the round's learner over the whole training set on the
		// worker pool; the per-sample mispredict flags are independent,
		// so chunking cannot change them.
		parallelChunks(n, cfg.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				mis[i] = !sameLabel(tree.Predict(x[i]), y[i])
			}
		})
		// Weighted error of this learner, summed serially in sample
		// order so eps is identical for every worker count.
		eps := 0.0
		for i := 0; i < n; i++ {
			if mis[i] {
				eps += dist[i]
			}
		}
		if eps >= 0.5-1e-9 {
			// No better than chance under the current distribution.
			if len(e.Trees) == 0 {
				// Keep one learner so the ensemble is usable.
				e.Trees = append(e.Trees, tree)
				e.Alphas = append(e.Alphas, 1)
			}
			break
		}
		if eps <= 1e-12 {
			// Perfect learner: give it a large but finite weight.
			e.Trees = append(e.Trees, tree)
			e.Alphas = append(e.Alphas, 12)
			break
		}
		alpha := 0.5 * math.Log((1-eps)/eps)
		e.Trees = append(e.Trees, tree)
		e.Alphas = append(e.Alphas, alpha)

		// Reweight: mistakes up, hits down; renormalize. Reuses the
		// mispredict flags instead of predicting every sample a second
		// time.
		up, down := math.Exp(alpha), math.Exp(-alpha)
		sum := 0.0
		for i := 0; i < n; i++ {
			if mis[i] {
				dist[i] *= up
			} else {
				dist[i] *= down
			}
			sum += dist[i]
		}
		for i := range dist {
			dist[i] /= sum
		}
	}
	if len(e.Trees) == 0 {
		return nil, errors.New("boost: no learners trained")
	}
	return e, nil
}

// parallelChunks runs fn over contiguous [lo, hi) ranges covering [0, n)
// on up to workers goroutines, one par.For index per range. fn must
// confine writes to its own range; results are then independent of the
// chunking and worker count. Small inputs run inline — goroutine overhead
// would dominate.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	const minChunk = 1024
	if workers <= 1 || n < 2*minChunk {
		fn(0, n)
		return
	}
	chunks := min(workers, (n+minChunk-1)/minChunk)
	size := (n + chunks - 1) / chunks
	par.For((n+size-1)/size, workers, func(c int) {
		fn(c*size, min((c+1)*size, n))
	})
}

// Predict returns the weighted vote balance in [−1, +1] (negative =
// failed).
func (e *Ensemble) Predict(x []float64) float64 {
	var score, total float64
	for i, t := range e.Trees {
		score += e.Alphas[i] * t.Predict(x)
		total += e.Alphas[i]
	}
	if exactZero(total) {
		return 0
	}
	return score / total
}

// Rounds returns the number of trained learners.
func (e *Ensemble) Rounds() int { return len(e.Trees) }
