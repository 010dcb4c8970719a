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

// compiledProbe builds deterministic inputs around the training data.
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
		probes := compiledProbe(x, 99)
		preds := c.PredictBatch(probes, nil)
		for i, p := range probes {
			if want, got := f.Predict(p), c.Predict(p); want != got {
				t.Fatalf("%s: Predict diverged at %d: %v vs %v", kind, i, want, got)
			}
			if preds[i] != f.Predict(p) {
				t.Fatalf("%s: PredictBatch diverged at %d", kind, i)
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

func TestCompiledForestBatchNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	x, y, w := trainingData(77, 400, 5, true)
	f, err := TrainClassifier(x, y, w, Config{Trees: 8, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := f.Compile()
	dst := make([]float64, len(x))
	if allocs := testing.AllocsPerRun(10, func() { c.PredictBatch(x, dst) }); allocs != 0 {
		t.Fatalf("PredictBatch with caller buffer allocated %.0f times per run", allocs)
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
	out := c.PredictBatch([][]float64{{1}, {2}}, nil)
	if len(out) != 2 || out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty compiled forest PredictBatch = %v", out)
	}
}
