// Package forest implements random forests over the cart trees — the
// method the paper names first in its future work ("we will try other
// statistical and machine learning methods, such as random forest, to
// boost the prediction performance"). Trees are trained on bootstrap
// resamples with per-split random feature subsets (MTry), predictions are
// vote averages, and out-of-bag samples provide a free generalization
// estimate.
package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"hddcart/internal/cart"
	"hddcart/internal/par"
)

// Config holds the forest hyper-parameters.
type Config struct {
	// Trees is the ensemble size. Default 50.
	Trees int
	// MTry is the number of features sampled per split. Default √F
	// (classification) or F/3 (regression), the standard choices.
	MTry int
	// SampleFrac is the bootstrap-sample size as a fraction of the
	// training set. Default 1 (classic bootstrap).
	SampleFrac float64
	// Params are the per-tree CART parameters; MTry/Seed within are
	// overridden per tree. Forests usually grow deep trees, so the
	// default CP is lowered to 1e-6 unless set explicitly. Set
	// Params.MaxBins to grow every member tree with the histogram-binned
	// engine — with many deep trees over the same matrix, binning pays
	// off even more than for a single tree.
	Params cart.Params
	// Seed drives all resampling.
	Seed int64
	// Workers bounds training parallelism; 0 = GOMAXPROCS. The trained
	// forest — every tree and the OOB estimate — is bit-identical for
	// any worker count: each tree's resampling RNG is seeded from its
	// index and OOB contributions fold in tree order.
	Workers int
}

func (c Config) withDefaults(nf int, kind cart.Kind) Config {
	if c.Trees == 0 {
		c.Trees = 50
	}
	if c.MTry == 0 {
		if kind == cart.Classification {
			c.MTry = int(math.Ceil(math.Sqrt(float64(nf))))
		} else {
			c.MTry = (nf + 2) / 3
		}
	}
	if c.MTry > nf {
		c.MTry = nf
	}
	if exactZero(c.SampleFrac) {
		c.SampleFrac = 1
	}
	if exactZero(c.Params.CP) {
		c.Params.CP = 1e-6
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Params.Workers == 0 {
		// Trees already train concurrently; growing each tree serially
		// avoids oversubscribing the pool. Callers can still opt into
		// nested parallelism (e.g. few huge trees) explicitly.
		c.Params.Workers = 1
	}
	return c
}

// Forest is a trained ensemble.
type Forest struct {
	// Trees are the ensemble members.
	Trees []*cart.Tree
	// Kind records classification vs regression.
	Kind cart.Kind
	// OOBError is the out-of-bag error estimate: the misclassification
	// rate (classification) or mean squared error (regression) over
	// samples predicted only by trees that did not train on them. NaN
	// when no sample was ever out of bag.
	OOBError float64
}

// TrainClassifier fits a classification forest (targets ±1).
func TrainClassifier(x [][]float64, y, w []float64, cfg Config) (*Forest, error) {
	return train(x, y, w, cfg, cart.Classification)
}

// TrainRegressor fits a regression forest.
func TrainRegressor(x [][]float64, y, w []float64, cfg Config) (*Forest, error) {
	return train(x, y, w, cfg, cart.Regression)
}

func train(x [][]float64, y, w []float64, cfg Config, kind cart.Kind) (*Forest, error) {
	if len(x) == 0 {
		return nil, errors.New("forest: empty training set")
	}
	if len(y) != len(x) {
		return nil, fmt.Errorf("forest: %d samples but %d targets", len(x), len(y))
	}
	if w != nil && len(w) != len(x) {
		return nil, fmt.Errorf("forest: %d samples but %d weights", len(x), len(w))
	}
	nf := len(x[0])
	cfg = cfg.withDefaults(nf, kind)
	if cfg.SampleFrac <= 0 || cfg.SampleFrac > 1 {
		return nil, fmt.Errorf("forest: SampleFrac %v outside (0,1]", cfg.SampleFrac)
	}

	n := len(x)
	sampleSize := int(float64(n) * cfg.SampleFrac)
	if sampleSize < 1 {
		sampleSize = 1
	}

	f := &Forest{Trees: make([]*cart.Tree, cfg.Trees), Kind: kind}

	// Per-tree OOB contributions, deposited by index and folded in tree
	// order after the pool drains: summing floats in completion order
	// would make OOBError depend on goroutine scheduling.
	inBags := make([][]bool, cfg.Trees)
	oobPreds := make([][]float64, cfg.Trees)

	errs := make([]error, cfg.Trees)
	par.For(cfg.Trees, cfg.Workers, func(t int) {
		// Each tree owns an RNG seeded from its index, so resampling is
		// reproducible and never shared across goroutines.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		inBag := make([]bool, n)
		bx := make([][]float64, 0, sampleSize)
		by := make([]float64, 0, sampleSize)
		var bw []float64
		if w != nil {
			bw = make([]float64, 0, sampleSize)
		}
		for i := 0; i < sampleSize; i++ {
			j := rng.Intn(n)
			inBag[j] = true
			bx = append(bx, x[j])
			by = append(by, y[j])
			if w != nil {
				bw = append(bw, w[j])
			}
		}
		params := cfg.Params
		params.MTry = cfg.MTry
		params.Seed = cfg.Seed + int64(t)*7_368_787
		var tree *cart.Tree
		var err error
		if kind == cart.Classification {
			tree, err = cart.TrainClassifier(bx, by, bw, params)
		} else {
			tree, err = cart.TrainRegressor(bx, by, bw, params)
		}
		if err != nil {
			errs[t] = err
			return
		}
		f.Trees[t] = tree

		// Score this tree's out-of-bag samples here (in parallel);
		// the float accumulation happens later, in tree order.
		preds := make([]float64, n)
		for i := 0; i < n; i++ {
			if !inBag[i] {
				preds[i] = tree.Predict(x[i])
			}
		}
		inBags[t] = inBag
		oobPreds[t] = preds
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Out-of-bag accumulation, folded deterministically in tree order.
	oobSum := make([]float64, n)
	oobCount := make([]int, n)
	for t := 0; t < cfg.Trees; t++ {
		for i := 0; i < n; i++ {
			if inBags[t][i] {
				continue
			}
			oobSum[i] += oobPreds[t][i]
			oobCount[i]++
		}
	}

	// OOB error.
	var errSum float64
	var covered int
	for i := 0; i < n; i++ {
		if oobCount[i] == 0 {
			continue
		}
		covered++
		pred := oobSum[i] / float64(oobCount[i])
		if kind == cart.Classification {
			if (pred < 0) != (y[i] < 0) {
				errSum++
			}
		} else {
			d := pred - y[i]
			errSum += d * d
		}
	}
	if covered == 0 {
		f.OOBError = math.NaN()
	} else {
		f.OOBError = errSum / float64(covered)
	}
	return f, nil
}

// Predict returns the ensemble output: the mean of tree predictions. For
// classification forests this is the vote balance in [−1, +1] (negative =
// failed), which doubles as a confidence score for threshold sweeps.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range f.Trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(f.Trees))
}

// VariableImportance averages the member trees' importances.
func (f *Forest) VariableImportance() []float64 {
	if len(f.Trees) == 0 {
		return nil
	}
	imp := make([]float64, f.Trees[0].NumFeatures)
	for _, t := range f.Trees {
		for i, v := range t.VariableImportance() {
			imp[i] += v
		}
	}
	for i := range imp {
		imp[i] /= float64(len(f.Trees))
	}
	return imp
}
