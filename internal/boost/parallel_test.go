package boost

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestParallelDeterminismBoost proves the AdaBoost ensemble — every weak
// learner and every alpha — is identical for any worker count: per-round
// scoring parallelizes but the weighted-error and reweighting sums always
// accumulate in sample order.
func TestParallelDeterminismBoost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 1500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := []float64{
			math.Floor(rng.Float64()*32) / 32,
			math.Floor(rng.Float64()*32) / 32,
			math.Floor(rng.Float64()*32) / 32,
		}
		x[i] = row
		y[i] = 1
		if row[0]-row[1]+0.5*row[2] > 0.4 {
			y[i] = -1
		}
		if rng.Float64() < 0.1 {
			y[i] = -y[i]
		}
	}
	// MaxBins sweeps the weak learners' grower: 0 exact, 32 coarse
	// histogram bins, 255 the uint8 ceiling. Every fixed value must keep
	// the worker-count bit-identity guarantee.
	for _, maxBins := range []int{0, 32, 255} {
		t.Run(fmt.Sprintf("maxbins=%d", maxBins), func(t *testing.T) {
			var refTrees []byte
			var refAlphas []float64
			for _, workers := range []int{1, 2, 4, 8} {
				cfg := Config{Rounds: 8, MaxDepth: 3, Workers: workers}
				cfg.Params.MaxBins = maxBins
				e, err := Train(x, y, nil, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				enc, err := json.Marshal(e.Trees)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					refTrees, refAlphas = enc, e.Alphas
					if e.Rounds() < 2 {
						t.Fatalf("reference ensemble trained only %d rounds", e.Rounds())
					}
					continue
				}
				if string(enc) != string(refTrees) {
					t.Errorf("workers=%d learners differ from serial result", workers)
				}
				if len(e.Alphas) != len(refAlphas) {
					t.Fatalf("workers=%d trained %d rounds, serial %d", workers, len(e.Alphas), len(refAlphas))
				}
				for i := range e.Alphas {
					if e.Alphas[i] != refAlphas[i] {
						t.Errorf("workers=%d alpha[%d] = %v, serial %v", workers, i, e.Alphas[i], refAlphas[i])
					}
				}
			}
		})
	}
}

// TestWorkersDefaultIsGOMAXPROCS pins Workers 0 to the scheduler's
// processor count, which honours GOMAXPROCS and container CPU limits,
// rather than the machine's CPU count.
func TestWorkersDefaultIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := (Config{}).withDefaults().Workers; got != 1 {
		t.Errorf("Workers 0 resolved to %d under GOMAXPROCS 1, want 1", got)
	}
}
