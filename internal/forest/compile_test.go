package forest

import (
	"math"
	"math/rand"
	"testing"
)

// trainingData builds a deterministic noisy dataset with per-sample
// weights for the compiled-equivalence tests.
func trainingData(seed int64, n, nf int, classify bool) (x [][]float64, y, w []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	y = make([]float64, n)
	w = make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			row[f] = math.Floor(rng.Float64()*32) / 32
		}
		x[i] = row
		w[i] = 0.5 + rng.Float64()
		score := row[0] - row[1] + 0.5*row[2%nf]
		if classify {
			y[i] = 1
			if score > 0.3 {
				y[i] = -1
			}
			if rng.Float64() < 0.05 {
				y[i] = -y[i]
			}
		} else {
			y[i] = score + rng.NormFloat64()*0.05
		}
	}
	return x, y, w
}

// compiledProbe builds deterministic inputs around the training data,
// plus a copy of each training row with one feature set to NaN.
func compiledProbe(x [][]float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	probes := append([][]float64(nil), x...)
	for i := 0; i < 64; i++ {
		p := make([]float64, len(x[0]))
		for j := range p {
			p[j] = rng.NormFloat64() * 5
		}
		probes = append(probes, p)
	}
	for i, row := range x {
		p := append([]float64(nil), row...)
		p[i%len(p)] = math.NaN()
		probes = append(probes, p)
	}
	return probes
}

// TestCompiledForestBitIdentical checks that Compile keeps every member
// tree in training order: the compiled members' per-row Predict, folded
// as Forest.Predict folds them, reproduce the forest's outputs bit for
// bit.
func TestCompiledForestBitIdentical(t *testing.T) {
	for _, kind := range []string{"classification", "regression"} {
		x, y, w := trainingData(401, 600, 6, kind == "classification")
		var (
			f   *Forest
			err error
		)
		if kind == "classification" {
			f, err = TrainClassifier(x, y, w, Config{Trees: 12, Seed: 2, Workers: 2})
		} else {
			f, err = TrainRegressor(x, y, w, Config{Trees: 12, Seed: 2, Workers: 2})
		}
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		c := f.Compile()
		if c.Kind != f.Kind || len(c.Trees) != len(f.Trees) {
			t.Fatalf("%s: compiled %v with %d trees, want %v with %d", kind, c.Kind, len(c.Trees), f.Kind, len(f.Trees))
		}
		for i, p := range compiledProbe(x, 99) {
			sum := 0.0
			for _, ct := range c.Trees {
				sum += ct.Predict(p)
			}
			if want, got := f.Predict(p), sum/float64(len(c.Trees)); want != got {
				t.Fatalf("%s: Predict diverged at %d: %v vs %v", kind, i, want, got)
			}
		}
	}
}

// TestCompiledForestBatchNoAlloc pins per-row scoring of a whole
// matrix through the forest at zero allocations.
func TestCompiledForestBatchNoAlloc(t *testing.T) {
	x, y, w := trainingData(77, 400, 5, true)
	f, err := TrainClassifier(x, y, w, Config{Trees: 8, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(x))
	if allocs := testing.AllocsPerRun(10, func() {
		for i, row := range x {
			dst[i] = f.Predict(row)
		}
	}); allocs != 0 {
		t.Fatalf("per-row Predict allocated %.0f times per run", allocs)
	}
}

func TestCompiledForestEmpty(t *testing.T) {
	f := &Forest{}
	if c := f.Compile(); len(c.Trees) != 0 {
		t.Fatalf("empty forest compiled to %d trees", len(c.Trees))
	}
	if got := f.Predict([]float64{1}); got != 0 {
		t.Fatalf("empty forest Predict = %v, want 0", got)
	}
}
