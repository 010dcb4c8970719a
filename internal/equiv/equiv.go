// Package equiv is a differential test harness for the model scoring
// paths: it generates adversarial feature matrices (ties on bin
// boundaries, ±Inf, NaN, denormals, single-bin features), trains a model
// over them, compiles every inference form — pointer tree, flat-array
// compiled tree, binned-code tree — and asserts that any two paths score
// bit-identically, whatever batch block size or worker count each uses.
//
// The contract it enforces is the one the inference engines document:
//
//   - pointer vs compiled: bit-identical on every input, always;
//   - float vs binned: bit-identical on every row of the corpus the
//     binning was built from when the model was trained with the same
//     bin budget (straddled thresholds are never evaluated by rows that
//     reach them), and on every bin-representative input when the
//     remapping is Exact;
//   - batch vs scalar, any block size, any worker count: bit-identical
//     by construction — each sample's score lands at its own index.
//
// The harness generalizes the PR 2 compiled-equivalence suite: instead
// of a fixed pair of engines it takes any two Paths (a name plus a
// scoring function), so new inference forms plug in as one constructor.
package equiv

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"hddcart/internal/cart"
	"hddcart/internal/cpu"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/sweep"
)

// Spec parameterizes one generated equivalence case. The zero value is
// not runnable; Rows, Features and MaxBins must be positive.
type Spec struct {
	// Rows and Features shape the corpus matrix.
	Rows, Features int
	// MaxBins is the bin budget for both training and the binned matrix
	// (1..255). Budgets below the distinct-value count force multi-value
	// bins, the regime where thresholds can straddle bins.
	MaxBins int
	// Seed drives every random choice; a Spec is fully deterministic.
	Seed int64
	// Regression selects a regression tree (health degrees) instead of a
	// classifier.
	Regression bool
	// DistinctValues bounds each feature's value pool. Small pools
	// produce heavy ties — runs of equal values sitting exactly on bin
	// boundaries. 0 means unbounded (every value drawn fresh).
	DistinctValues int
	// NaNFrac is the probability a cell is NaN (routed via the reserved
	// missing bin). InfFrac is the probability a cell is ±Inf (ordered
	// normally by the binning). DenormalFrac is the probability a cell
	// is a subnormal float.
	NaNFrac, InfFrac, DenormalFrac float64
	// SingleBinFeature makes feature 0 constant: one bin, no valid cut
	// strictly inside it, splits on it impossible — the degenerate
	// column every quantizer must survive.
	SingleBinFeature bool
}

// Case is one generated equivalence case: the corpus, its binning, the
// model in every inference form, and the quantized corpus rows.
type Case struct {
	Spec  Spec
	X     [][]float64
	Y     []float64
	Bins  *dataset.BinnedMatrix
	Codes [][]uint8

	Tree     *cart.Tree
	Compiled *cart.CompiledTree
	Binned   *cart.BinnedTree
	// Tiled is the corpus codes repacked feature-major
	// (dataset.TileCodes), the layout the fleet-sweep kernels read.
	Tiled *dataset.TiledMatrix
}

// Generate builds a Case from a Spec: draw the matrix, synthesize
// labels, train with the Spec's bin budget, bin the corpus with the same
// budget, and compile every scoring form. The generated corpus is the
// domain on which float and binned scoring must agree bit for bit.
func Generate(spec Spec) (*Case, error) {
	if spec.Rows < 8 || spec.Features < 1 {
		return nil, fmt.Errorf("equiv: spec needs ≥ 8 rows and ≥ 1 feature, got %d×%d", spec.Rows, spec.Features)
	}
	if spec.MaxBins < 1 || spec.MaxBins > dataset.MaxBinsLimit {
		return nil, fmt.Errorf("equiv: MaxBins %d outside [1,%d]", spec.MaxBins, dataset.MaxBinsLimit)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Per-feature value pools: bounded pools make runs of exact ties that
	// land on bin boundaries; special values go through the same pool so
	// ties can be ±Inf or denormal too.
	pools := make([][]float64, spec.Features)
	for f := range pools {
		n := spec.DistinctValues
		if n <= 0 {
			n = spec.Rows
		}
		pool := make([]float64, n)
		for i := range pool {
			pool[i] = drawValue(rng, spec)
		}
		pools[f] = pool
	}

	x := make([][]float64, spec.Rows)
	y := make([]float64, spec.Rows)
	for i := range x {
		row := make([]float64, spec.Features)
		for f := range row {
			switch {
			case spec.SingleBinFeature && f == 0:
				row[f] = 42.5
			case rng.Float64() < spec.NaNFrac:
				row[f] = math.NaN()
			default:
				row[f] = pools[f][rng.Intn(len(pools[f]))]
			}
		}
		x[i] = row
		if spec.Regression {
			y[i] = rng.Float64()*2 - 1
		} else {
			y[i] = float64(rng.Intn(2)*2 - 1)
		}
	}

	// Noise labels grow deep trees at a tiny CP: splits everywhere the
	// partitioner can find them, which is exactly the kernel coverage an
	// equivalence case wants.
	params := cart.Params{MinSplit: 4, MinBucket: 2, CP: 1e-9, MaxBins: spec.MaxBins, Workers: 1}
	var (
		tree *cart.Tree
		err  error
	)
	if spec.Regression {
		tree, err = cart.TrainRegressor(x, y, nil, params)
	} else {
		params.LossFA = 2
		tree, err = cart.TrainClassifier(x, y, nil, params)
	}
	if err != nil {
		return nil, fmt.Errorf("equiv: train: %w", err)
	}

	bm, err := dataset.BinMatrix(x, spec.MaxBins)
	if err != nil {
		return nil, fmt.Errorf("equiv: bin: %w", err)
	}
	ct := tree.Compile()
	bt, err := ct.CompileBinned(bm)
	if err != nil {
		return nil, fmt.Errorf("equiv: compile binned: %w", err)
	}
	codes, err := bm.Quantize(x)
	if err != nil {
		return nil, fmt.Errorf("equiv: quantize: %w", err)
	}
	tm, err := dataset.TileCodes(codes, bm.NumFeatures)
	if err != nil {
		return nil, fmt.Errorf("equiv: tile: %w", err)
	}
	return &Case{Spec: spec, X: x, Y: y, Bins: bm, Codes: codes,
		Tree: tree, Compiled: ct, Binned: bt, Tiled: tm}, nil
}

// drawValue produces one finite-or-Inf corpus value with the Spec's
// special-value mix.
func drawValue(rng *rand.Rand, spec Spec) float64 {
	r := rng.Float64()
	switch {
	case r < spec.InfFrac:
		return math.Inf(2*rng.Intn(2) - 1)
	case r < spec.InfFrac+spec.DenormalFrac:
		// Subnormals: tiny positive/negative values below 2^-1022.
		v := float64(rng.Intn(1<<20)+1) * 5e-324
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	case rng.Intn(4) == 0:
		return float64(rng.Intn(64)-32) / 8 // coarse grid: extra cross-feature ties
	default:
		return rng.NormFloat64() * 100
	}
}

// Path is one way of scoring a Case: a name for diagnostics and a
// function filling dst[i] with the score of row i.
type Path struct {
	Name  string
	Score func(c *Case, dst []float64)
}

// Mismatch reports the first row where two paths diverge.
type Mismatch struct {
	PathA, PathB string
	Row          int
	A, B         float64
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("equiv: %s and %s diverge at row %d: %v vs %v (bits %#x vs %#x)",
		m.PathA, m.PathB, m.Row, m.A, m.B, math.Float64bits(m.A), math.Float64bits(m.B))
}

// Check scores the case through both paths and returns the first
// mismatch, or nil when they are bit-identical (NaN equals NaN; +0 and
// −0 are distinct).
func Check(c *Case, a, b Path) error {
	da := make([]float64, len(c.X))
	db := make([]float64, len(c.X))
	a.Score(c, da)
	b.Score(c, db)
	for i := range da {
		if !sameBits(da[i], db[i]) {
			return &Mismatch{PathA: a.Name, PathB: b.Name, Row: i, A: da[i], B: db[i]}
		}
	}
	return nil
}

// CheckAll checks every path against the first, returning the first
// mismatch found.
func CheckAll(c *Case, paths ...Path) error {
	for _, p := range paths[1:] {
		if err := Check(c, paths[0], p); err != nil {
			return err
		}
	}
	return nil
}

// sameBits is bit-level equality with all NaN payloads identified: the
// scoring paths produce NaN only via the same math, so any NaN matches
// any NaN, while +0/−0 and every finite value must match exactly.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// Pointer scores through the pointer tree, sample by sample.
func Pointer() Path {
	return Path{Name: "pointer", Score: func(c *Case, dst []float64) {
		for i, row := range c.X {
			dst[i] = c.Tree.Predict(row)
		}
	}}
}

// CompiledScalar scores through the compiled tree's per-sample walk.
func CompiledScalar() Path {
	return Path{Name: "compiled", Score: func(c *Case, dst []float64) {
		for i, row := range c.X {
			dst[i] = c.Compiled.Predict(row)
		}
	}}
}

// CompiledBatch scores through the compiled batch engine in blocks of
// the given size (0 = one call for the whole case). Block sizes around
// the engine's internal partition thresholds exercise every kernel.
func CompiledBatch(block int) Path {
	return Path{Name: fmt.Sprintf("compiled-batch/%d", block), Score: func(c *Case, dst []float64) {
		forEachBlock(len(c.X), block, func(lo, hi int) {
			c.Compiled.PredictBatch(c.X[lo:hi], dst[lo:hi])
		})
	}}
}

// BinnedScalar scores the quantized rows through the binned per-sample
// walk.
func BinnedScalar() Path {
	return Path{Name: "binned", Score: func(c *Case, dst []float64) {
		for i, codes := range c.Codes {
			dst[i] = c.Binned.Predict(codes)
		}
	}}
}

// TiledRange scores the feature-major tiled matrix through the sweep
// kernels in row ranges of the given size (0 = one call). Range sizes
// around dataset.TileRows exercise the tile-seam addressing.
func TiledRange(block int) Path {
	return Path{Name: fmt.Sprintf("tiled-range/%d", block), Score: func(c *Case, dst []float64) {
		forEachBlock(len(c.Codes), block, func(lo, hi int) {
			c.Binned.PredictTiledRange(c.Tiled, lo, hi, dst[lo:hi])
		})
	}}
}

// TiledWorkers shards tiled row ranges across goroutines — the sweep
// engine's claim that outcomes are worker-count-invariant reduces to
// this: every score lands at its own index whatever goroutine computed
// it.
func TiledWorkers(workers int) Path {
	return Path{Name: fmt.Sprintf("tiled-workers/%d", workers), Score: func(c *Case, dst []float64) {
		forEachShard(len(c.Codes), workers, func(lo, hi int) {
			c.Binned.PredictTiledRange(c.Tiled, lo, hi, dst[lo:hi])
		})
	}}
}

// CompiledWorkers scores through the compiled batch engine with the rows
// sharded across the given number of goroutines — every score lands at
// its own index, so the result must be identical to any serial path.
func CompiledWorkers(workers int) Path {
	return Path{Name: fmt.Sprintf("compiled-workers/%d", workers), Score: func(c *Case, dst []float64) {
		forEachShard(len(c.X), workers, func(lo, hi int) {
			c.Compiled.PredictBatch(c.X[lo:hi], dst[lo:hi])
		})
	}}
}

// ForceKernel pins a path to one dispatch tier: the wrapped path scores
// with the given kernel active and the previous tier restored after.
// This is how the kernel-equivalence contract is enforced — the same
// path, run under every tier the build links, must emit identical bytes,
// because the partition kernels are order-defining (the order they emit
// becomes the next tree level's input order, so tiers that merely
// "count the same" would still diverge downstream). The kernel must be
// supported on this build (cpu.Kernels lists the supported set); scoring
// panics otherwise rather than silently testing the wrong tier.
func ForceKernel(k cpu.Kernel, p Path) Path {
	return Path{
		Name: fmt.Sprintf("kernel-%s/%s", k, p.Name),
		Score: func(c *Case, dst []float64) {
			prev, ok := cpu.SetActive(k)
			if !ok {
				panic(fmt.Sprintf("equiv: kernel %s not supported on this build", k))
			}
			defer cpu.SetActive(prev)
			p.Score(c, dst)
		},
	}
}

// forEachBlock invokes fn over consecutive [lo,hi) blocks.
func forEachBlock(n, block int, fn func(lo, hi int)) {
	if block <= 0 {
		block = n
	}
	for lo := 0; lo < n; lo += block {
		fn(lo, min(lo+block, n))
	}
}

// forEachShard splits [0,n) into up to workers contiguous shards and
// runs them concurrently.
func forEachShard(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < 2 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// PerturbWithinBin returns a copy of the corpus with every finite value
// re-drawn uniformly inside its own bin's [Lower, Upper] value range
// (NaN cells and infinite bin bounds are left untouched). Every
// perturbed row quantizes to the same codes, so the binned verdicts must
// not change — the metamorphic property of binned inference.
func (c *Case) PerturbWithinBin(seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, len(c.X))
	for i, row := range c.X {
		p := make([]float64, len(row))
		copy(p, row)
		for f, v := range p {
			if math.IsNaN(v) {
				continue
			}
			col := &c.Bins.Cols[f]
			b := int(col.CodeOf(v))
			if b >= col.NumBins {
				continue // above the top bin: no range to move within
			}
			lo, hi := col.Lower[b], col.Upper[b]
			if lo == hi || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
				continue
			}
			nv := lo + rng.Float64()*(hi-lo)
			if nv > hi {
				nv = hi
			}
			if nv < lo {
				nv = lo
			}
			p[f] = nv
		}
		out[i] = p
	}
	return out
}

// CheckDetect runs the float detectors and the fleet sweep over the
// corpus as drive series — Voting and MeanThreshold through ScanBatch
// against sweep.Run on the quantized series, and MultiVoting against the
// sweep per window size — requiring identical outcomes at every worker
// count. The corpus is the exact-bin domain: the bins were built from
// these very rows, so float and binned scores agree on each of them.
// It is split into several series so the sweep sees more than one drive
// and more than one shard.
func CheckDetect(c *Case, voters []int, workers []int) error {
	series, binned := c.splitSeries(4)
	failHours := make([]int, len(series))
	for d := range failHours {
		failHours[d] = -1
		if d%2 == 1 {
			failHours[d] = 8*len(series[d].X) + 5
		}
	}
	fleet, err := sweep.PrepareBinned(binned, 3)
	if err != nil {
		return fmt.Errorf("equiv: prepare sweep: %w", err)
	}
	const meanThreshold = -0.1
	multi := make([][]detect.Outcome, len(series))
	for d := range series {
		mv := &detect.MultiVoting{Model: c.Compiled, Voters: voters, Workers: 1}
		multi[d] = mv.ScanAll(series[d], failHours[d])
	}
	for k, n := range voters {
		for _, w := range workers {
			for _, mean := range []bool{false, true} {
				var det detect.Detector = &detect.Voting{Model: c.Compiled, Voters: n}
				cfg := sweep.Config{Voters: n, Workers: w}
				if mean {
					det = &detect.MeanThreshold{Model: c.Compiled, Voters: n, Threshold: meanThreshold}
					cfg.Threshold, cfg.Mean = meanThreshold, true
				}
				want := detect.ScanBatch(det, series, failHours, w)
				res, err := sweep.Run(c.Binned, fleet, failHours, cfg)
				if err != nil {
					return fmt.Errorf("equiv: sweep N=%d workers=%d mean=%v: %w", n, w, mean, err)
				}
				for d := range want {
					if want[d] != res.Outcomes[d] {
						return fmt.Errorf("equiv: N=%d workers=%d mean=%v series %d: float %+v, sweep %+v",
							n, w, mean, d, want[d], res.Outcomes[d])
					}
					if !mean && multi[d][k] != res.Outcomes[d] {
						return fmt.Errorf("equiv: multi-voting N=%d series %d: float %+v, sweep %+v",
							n, d, multi[d][k], res.Outcomes[d])
					}
				}
			}
		}
	}
	return nil
}

// splitSeries slices the corpus into k drive series (float and binned
// views of the same rows).
func (c *Case) splitSeries(k int) ([]detect.Series, []detect.BinnedSeries) {
	if k > len(c.X) {
		k = len(c.X)
	}
	size := (len(c.X) + k - 1) / k
	var fs []detect.Series
	var bs []detect.BinnedSeries
	for lo := 0; lo < len(c.X); lo += size {
		hi := min(lo+size, len(c.X))
		hours := make([]int, hi-lo)
		for i := range hours {
			hours[i] = i * 8
		}
		fs = append(fs, detect.Series{X: c.X[lo:hi], Hours: hours})
		bs = append(bs, detect.BinnedSeries{Codes: c.Codes[lo:hi], Hours: hours})
	}
	return fs, bs
}
