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
		for i, p := range compiledProbe(x, 99) {
			if want, got := f.Predict(p), c.Predict(p); want != got {
				t.Fatalf("%s: Predict diverged at %d: %v vs %v", kind, i, want, got)
			}
			if f.PredictFailed(p) != c.PredictFailed(p) {
				t.Fatalf("%s: PredictFailed diverged at %d", kind, i)
			}
			pw, pg := f.ProbFailed(p), c.ProbFailed(p)
			if pw != pg && !(math.IsNaN(pw) && math.IsNaN(pg)) {
				t.Fatalf("%s: ProbFailed diverged at %d: %v vs %v", kind, i, pw, pg)
			}
		}
	}
}

// TestCompiledForestBatchNoAlloc pins per-row scoring of a whole
// matrix through the compiled forest at zero allocations.
func TestCompiledForestBatchNoAlloc(t *testing.T) {
	x, y, w := trainingData(77, 400, 5, true)
	f, err := TrainClassifier(x, y, w, Config{Trees: 8, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := f.Compile()
	dst := make([]float64, len(x))
	if allocs := testing.AllocsPerRun(10, func() {
		for i, row := range x {
			dst[i] = c.Predict(row)
		}
	}); allocs != 0 {
		t.Fatalf("per-row Predict allocated %.0f times per run", allocs)
	}
}

func TestCompiledForestEmpty(t *testing.T) {
	c := (&Forest{}).Compile()
	if got := c.Predict([]float64{1}); got != 0 {
		t.Fatalf("empty compiled forest Predict = %v, want 0", got)
	}
	if got := c.ProbFailed([]float64{1}); !math.IsNaN(got) {
		t.Fatalf("empty compiled forest ProbFailed = %v, want NaN", got)
	}
}
