package cart

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hddcart/internal/dataset"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// workerCounts are the pool sizes every determinism test sweeps. 1 is the
// serial reference; the rest must reproduce it byte for byte.
var workerCounts = []int{1, 2, 4, 8}

// maxBinsCases sweeps the grower selection: 0 is the exact presorted
// path, 32 forces coarse multi-value bins, 255 is the uint8 ceiling.
// The bit-identity guarantee must hold at every fixed MaxBins.
var maxBinsCases = []int{0, 32, 255}

// synthClassification builds an n-sample nf-feature ±1 dataset with a few
// informative features, label noise, and duplicated feature values (to
// exercise the equal-value boundary skip). Weights are non-uniform.
func synthClassification(seed int64, n, nf int) (x [][]float64, y, w []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	y = make([]float64, n)
	w = make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			// Quantize so many samples share exact feature values.
			row[f] = math.Floor(rng.Float64()*32) / 32
		}
		x[i] = row
		score := row[0] + 2*row[1] - row[2]*row[0]
		y[i] = 1
		if score > 0.9 {
			y[i] = -1
		}
		if rng.Float64() < 0.05 { // label noise keeps nodes impure
			y[i] = -y[i]
		}
		w[i] = 0.5 + rng.Float64()
	}
	return x, y, w
}

// synthRegression builds a noisy piecewise target over nf features.
func synthRegression(seed int64, n, nf int) (x [][]float64, y, w []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	y = make([]float64, n)
	w = make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			row[f] = math.Floor(rng.Float64()*64) / 64
		}
		x[i] = row
		y[i] = 3*row[0] - row[1]*row[1] + 0.1*rng.NormFloat64()
		if row[2] > 0.5 {
			y[i] += 2
		}
		w[i] = 1
	}
	return x, y, w
}

// gendataStyle assembles a training set the way cmd/gendata + cmd/hddpred
// do: a synthetic fleet's SMART traces pushed through the dataset builder
// with the paper's critical features.
func gendataStyle(t testing.TB) (x [][]float64, y, w []float64) {
	t.Helper()
	fleet, err := simulate.New(simulate.Config{Seed: 3, GoodScale: 0.004, FailedScale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dataset.NewBuilder(dataset.Config{
		Features:            smart.CriticalFeatures(),
		PeriodStart:         0,
		PeriodEnd:           simulate.HoursPerWeek,
		SamplesPerGoodDrive: 8,
		FailedWindowHours:   168,
		FailedShare:         0.2,
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.DrivesOf("W") {
		trace := fleet.Trace(d.Index)
		if d.Failed {
			b.AddFailedDrive(d.Index, d.FailHour, trace)
		} else {
			b.AddGoodDrive(d.Index, trace)
		}
	}
	ds, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return ds.XMatrix()
}

// marshalTree serializes a tree for byte comparison.
func marshalTree(t testing.TB, tree *Tree) []byte {
	t.Helper()
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParallelDeterminismClassifier proves the tentpole guarantee: for
// every worker count the grown classification tree — splits, thresholds,
// leaf values and the prune sequence baked into Gain — is byte-identical
// to the serial result.
func TestParallelDeterminismClassifier(t *testing.T) {
	cases := []struct {
		name   string
		data   func(t testing.TB) ([][]float64, []float64, []float64)
		params Params
	}{
		{
			name: "synthetic/defaults",
			data: func(testing.TB) ([][]float64, []float64, []float64) {
				return synthClassification(11, 4000, 8)
			},
			params: Params{},
		},
		{
			name: "synthetic/deep-asymmetric",
			data: func(testing.TB) ([][]float64, []float64, []float64) {
				return synthClassification(12, 3000, 6)
			},
			params: Params{MinSplit: 4, MinBucket: 2, CP: 1e-9, LossFA: 10},
		},
		{
			name:   "gendata/paper-ct",
			data:   gendataStyle,
			params: Params{MinSplit: 20, MinBucket: 7, CP: 0.001, LossFA: 10},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y, w := tc.data(t)
			for _, maxBins := range maxBinsCases {
				t.Run(fmt.Sprintf("maxbins=%d", maxBins), func(t *testing.T) {
					var ref []byte
					for _, workers := range workerCounts {
						p := tc.params
						p.Workers = workers
						p.MaxBins = maxBins
						tree, err := TrainClassifier(x, y, w, p)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						enc := marshalTree(t, tree)
						if workers == 1 {
							ref = enc
							if tree.NumNodes() < 3 {
								t.Fatalf("degenerate reference tree (%d nodes) proves nothing", tree.NumNodes())
							}
							continue
						}
						if string(enc) != string(ref) {
							t.Errorf("workers=%d tree differs from serial result", workers)
						}
					}
				})
			}
		})
	}
}

// TestParallelDeterminismRegressor is the regression-tree counterpart.
func TestParallelDeterminismRegressor(t *testing.T) {
	x, y, w := synthRegression(21, 4000, 7)
	for _, maxBins := range maxBinsCases {
		t.Run(fmt.Sprintf("maxbins=%d", maxBins), func(t *testing.T) {
			var ref []byte
			for _, workers := range workerCounts {
				tree, err := TrainRegressor(x, y, w, Params{
					MinSplit: 6, MinBucket: 3, CP: 1e-6, Workers: workers, MaxBins: maxBins,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				enc := marshalTree(t, tree)
				if workers == 1 {
					ref = enc
					if tree.NumNodes() < 7 {
						t.Fatalf("reference tree too small: %d nodes", tree.NumNodes())
					}
					continue
				}
				if string(enc) != string(ref) {
					t.Errorf("workers=%d regression tree differs from serial result", workers)
				}
			}
		})
	}
}

// TestParallelDeterminismMTry pins the per-node MTry sampling: randomized
// split searches must draw the same feature subsets wherever the node
// lands in the tree, regardless of which goroutine grows it.
func TestParallelDeterminismMTry(t *testing.T) {
	x, y, w := synthClassification(31, 3000, 10)
	for _, maxBins := range maxBinsCases {
		t.Run(fmt.Sprintf("maxbins=%d", maxBins), func(t *testing.T) {
			var ref []byte
			for _, workers := range workerCounts {
				tree, err := TrainClassifier(x, y, w, Params{
					MinSplit: 4, MinBucket: 2, CP: 1e-9,
					MTry: 3, Seed: 99, Workers: workers, MaxBins: maxBins,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				enc := marshalTree(t, tree)
				if workers == 1 {
					ref = enc
					continue
				}
				if string(enc) != string(ref) {
					t.Errorf("workers=%d MTry tree differs from serial result", workers)
				}
			}
		})
	}
}

// TestParallelMatchesKnownSerial re-checks a structural invariant under
// every worker count: parallel growth must still respect MinBucket (a
// regression here would mean a worker saw stale stats).
func TestParallelMatchesKnownSerial(t *testing.T) {
	x, y, w := synthClassification(51, 2500, 5)
	for _, workers := range workerCounts {
		tree, err := TrainClassifier(x, y, w, Params{MinSplit: 10, MinBucket: 5, CP: 1e-9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var walk func(n *Node)
		walk = func(n *Node) {
			if n == nil {
				return
			}
			if n.IsLeaf() {
				if n.N < 5 {
					t.Errorf("workers=%d: leaf with %d < MinBucket samples", workers, n.N)
				}
				return
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(tree.Root)
	}
}

// TestWorkersValidation rejects negative pool sizes on every entry point.
func TestWorkersValidation(t *testing.T) {
	x, y, _ := synthClassification(61, 100, 3)
	if _, err := TrainClassifier(x, y, nil, Params{Workers: -1}); err == nil {
		t.Error("negative Workers accepted by TrainClassifier")
	}
}

// TestWorkersDefaultIsGOMAXPROCS pins Workers 0 to the scheduler's
// processor count, which honours GOMAXPROCS and container CPU limits,
// rather than the machine's CPU count.
func TestWorkersDefaultIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := (Params{}).withDefaults().Workers; got != 1 {
		t.Errorf("Workers 0 resolved to %d under GOMAXPROCS 1, want 1", got)
	}
}
