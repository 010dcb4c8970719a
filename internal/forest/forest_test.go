package forest

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/cart"
)

// noisyData builds a two-feature dataset: label by feature 0 with 8% label
// noise; feature 1 is pure noise. A single tree overfits the noise; the
// forest should not.
func noisyData(n int, seed int64) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a := rng.Float64()
		x = append(x, []float64{a, rng.Float64()})
		label := 1.0
		if a < 0.4 {
			label = -1
		}
		if rng.Float64() < 0.08 {
			label = -label
		}
		y = append(y, label)
	}
	return x, y
}

func TestForestLearns(t *testing.T) {
	x, y := noisyData(1500, 1)
	f, err := TrainClassifier(x, y, nil, Config{Trees: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on fresh data against the true rule.
	xt, _ := noisyData(500, 3)
	errs := 0
	for _, row := range xt {
		want := row[0] >= 0.4
		if (f.Predict(row) >= 0) != want {
			errs++
		}
	}
	if errs > 25 { // 5%
		t.Errorf("forest test errors = %d/500", errs)
	}
}

func TestForestBeatsSingleOverfitTree(t *testing.T) {
	x, y := noisyData(1500, 4)
	deep := cart.Params{MinSplit: 2, MinBucket: 1, CP: 1e-12}
	tree, err := cart.TrainClassifier(x, y, nil, deep)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainClassifier(x, y, nil, Config{Trees: 40, Params: deep, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	xt, _ := noisyData(800, 6)
	treeErrs, forestErrs := 0, 0
	for _, row := range xt {
		want := row[0] >= 0.4
		if (tree.Predict(row) >= 0) != want {
			treeErrs++
		}
		if (f.Predict(row) >= 0) != want {
			forestErrs++
		}
	}
	if forestErrs > treeErrs {
		t.Errorf("forest errors %d > single overfit tree errors %d", forestErrs, treeErrs)
	}
}

func TestOOBErrorReasonable(t *testing.T) {
	x, y := noisyData(1000, 7)
	f, err := TrainClassifier(x, y, nil, Config{Trees: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// True noise floor is 8%; OOB should land in its vicinity.
	if math.IsNaN(f.OOBError) || f.OOBError < 0.02 || f.OOBError > 0.2 {
		t.Errorf("OOB error = %v, want ≈ 0.08", f.OOBError)
	}
}

func TestForestScoresAreVoteFractions(t *testing.T) {
	x, y := noisyData(600, 9)
	f, err := TrainClassifier(x, y, nil, Config{Trees: 20, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range x[:100] {
		s := f.Predict(row)
		if s < -1 || s > 1 {
			t.Fatalf("score %v outside [-1,1]", s)
		}
		failed := 0
		for _, tree := range f.Trees {
			if tree.Predict(row) < 0 {
				failed++
			}
		}
		p := float64(failed) / float64(len(f.Trees))
		// score = 1 − 2·probFailed for ±1 trees.
		if math.Abs(s-(1-2*p)) > 1e-9 {
			t.Fatalf("score %v inconsistent with vote fraction %v", s, p)
		}
	}
}

func TestRegressionForest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var x [][]float64
	var y []float64
	for i := 0; i < 1500; i++ {
		v := rng.Float64()
		x = append(x, []float64{v})
		y = append(y, math.Sin(3*v)+rng.NormFloat64()*0.1)
	}
	f, err := TrainRegressor(x, y, nil, Config{Trees: 30, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var se float64
	for i := 0; i < 300; i++ {
		v := rng.Float64()
		d := f.Predict([]float64{v}) - math.Sin(3*v)
		se += d * d
	}
	if rmse := math.Sqrt(se / 300); rmse > 0.25 {
		t.Errorf("regression forest RMSE = %v", rmse)
	}
	if f.OOBError > 0.1 {
		t.Errorf("regression OOB MSE = %v", f.OOBError)
	}
}

func TestForestDeterministic(t *testing.T) {
	x, y := noisyData(400, 13)
	a, err := TrainClassifier(x, y, nil, Config{Trees: 10, Seed: 14, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainClassifier(x, y, nil, Config{Trees: 10, Seed: 14, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range x[:50] {
		if a.Predict(row) != b.Predict(row) {
			t.Fatal("forest training not deterministic across worker counts")
		}
	}
}

func TestForestValidation(t *testing.T) {
	if _, err := TrainClassifier(nil, nil, nil, Config{}); err == nil {
		t.Error("empty training set accepted")
	}
	x := [][]float64{{1}, {2}}
	if _, err := TrainClassifier(x, []float64{1}, nil, Config{}); err == nil {
		t.Error("target mismatch accepted")
	}
	if _, err := TrainClassifier(x, []float64{1, -1}, []float64{1}, Config{}); err == nil {
		t.Error("weight mismatch accepted")
	}
	if _, err := TrainClassifier(x, []float64{1, -1}, nil, Config{SampleFrac: 2}); err == nil {
		t.Error("SampleFrac > 1 accepted")
	}
}

func TestForestWeights(t *testing.T) {
	// All samples identical; weights decide the label.
	x := make([][]float64, 60)
	y := make([]float64, 60)
	w := make([]float64, 60)
	for i := range x {
		x[i] = []float64{0}
		if i < 20 {
			y[i], w[i] = -1, 10
		} else {
			y[i], w[i] = 1, 1
		}
	}
	f, err := TrainClassifier(x, y, w, Config{Trees: 15, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if f.Predict([]float64{0}) >= 0 {
		t.Error("weighted minority should win")
	}
}

func TestVariableImportanceConcentrates(t *testing.T) {
	x, y := noisyData(1000, 16)
	f, err := TrainClassifier(x, y, nil, Config{Trees: 25, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.VariableImportance()
	if len(imp) != 2 || imp[0] <= imp[1] {
		t.Errorf("importance = %v, want feature 0 dominant", imp)
	}
}

func TestMTrySampling(t *testing.T) {
	// With MTry = 1 of 2 features, roughly half the root splits should
	// use the noise feature — proving per-split sampling is active.
	x, y := noisyData(800, 18)
	f, err := TrainClassifier(x, y, nil, Config{Trees: 40, MTry: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	noiseRoots := 0
	for _, tree := range f.Trees {
		if !tree.Root.IsLeaf() && tree.Root.Feature == 1 {
			noiseRoots++
		}
	}
	if noiseRoots == 0 {
		t.Error("MTry=1 never sampled the noise feature at the root")
	}
	if noiseRoots == len(f.Trees) {
		t.Error("MTry=1 never sampled the informative feature at the root")
	}
}
