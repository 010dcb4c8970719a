package boost

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/cart"
)

func TestBoostLearnsXOR(t *testing.T) {
	// XOR defeats a depth-2 stump but not a boosted committee of
	// depth-3 trees.
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 800; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x = append(x, []float64{a, b})
		if (a < 0) != (b < 0) {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	// XOR's first split carries ~zero information gain, so greedy weak
	// learners need enough depth to carve their way in (a known CART
	// property); depth 6 committees solve it comfortably.
	e, err := Train(x, y, nil, Config{Rounds: 20, MaxDepth: 6,
		Params: cart.Params{MinSplit: 4, MinBucket: 2, CP: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range x {
		if (e.Predict(x[i]) < 0) != (y[i] < 0) {
			errs++
		}
	}
	if errs > 40 { // 5%
		t.Errorf("boosted XOR errors = %d/800 with %d rounds", errs, e.Rounds())
	}
}

func TestBoostImprovesOverSingleWeakLearner(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 1000; i++ {
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		x = append(x, []float64{a, b, c})
		if a+0.7*b-0.5*c > 0 { // oblique boundary: hard for one shallow tree
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	weak := cart.Params{MinSplit: 10, MinBucket: 5, MaxDepth: 2, CP: 1e-9}
	single, err := cart.TrainClassifier(x, y, nil, weak)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := Train(x, y, nil, Config{Rounds: 40, MaxDepth: 2,
		Params: cart.Params{MinSplit: 10, MinBucket: 5, CP: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	singleErrs, boostErrs := 0, 0
	for i := range x {
		if single.Predict(x[i]) != y[i] {
			singleErrs++
		}
		if (boosted.Predict(x[i]) < 0) != (y[i] < 0) {
			boostErrs++
		}
	}
	if boostErrs >= singleErrs {
		t.Errorf("boosting did not improve: %d vs %d errors", boostErrs, singleErrs)
	}
}

func TestBoostSeparableStopsEarly(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		v := float64(i) - 50
		if v >= 0 {
			v++
		}
		x = append(x, []float64{v})
		if v < 0 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	e, err := Train(x, y, nil, Config{Rounds: 50, MaxDepth: 2,
		Params: cart.Params{MinSplit: 2, MinBucket: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Rounds() > 2 {
		t.Errorf("separable data trained %d rounds, want early stop", e.Rounds())
	}
	for i := range x {
		if (e.Predict(x[i]) < 0) != (y[i] < 0) {
			t.Fatal("separable data misclassified")
		}
	}
}

func TestBoostPureNoiseStops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		x = append(x, []float64{rng.Float64()})
		y = append(y, float64(1-2*rng.Intn(2)))
	}
	// Unsplittable learners (MinSplit > n) predict the majority class;
	// after one reweighting the distribution is balanced and the next
	// learner has ε = 0.5, so boosting must stall almost immediately.
	e, err := Train(x, y, nil, Config{Rounds: 50, MaxDepth: 1,
		Params: cart.Params{MinSplit: 1000, MinBucket: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Rounds() > 3 {
		t.Errorf("pure noise trained %d rounds, want quick stall", e.Rounds())
	}
}

func TestBoostScoresBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		x = append(x, []float64{rng.NormFloat64()})
		if x[i][0] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
		if rng.Float64() < 0.1 {
			y[i] = -y[i]
		}
	}
	e, err := Train(x, y, nil, Config{Rounds: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		s := e.Predict(x[i])
		if s < -1-1e-9 || s > 1+1e-9 || math.IsNaN(s) {
			t.Fatalf("score %v outside [-1,1]", s)
		}
	}
	if e.Predict([]float64{-3}) >= 0 || e.Predict([]float64{3}) < 0 {
		t.Error("score direction wrong")
	}
}

func TestBoostInitialWeights(t *testing.T) {
	// Identical inputs; the 10×-weighted minority class should win.
	x := make([][]float64, 50)
	y := make([]float64, 50)
	w := make([]float64, 50)
	for i := range x {
		x[i] = []float64{0}
		if i < 15 {
			y[i], w[i] = -1, 10
		} else {
			y[i], w[i] = 1, 1
		}
	}
	e, err := Train(x, y, w, Config{Rounds: 5, Params: cart.Params{MinSplit: 2, MinBucket: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Predict([]float64{0}) >= 0 {
		t.Error("weighted minority should win")
	}
}

func TestBoostValidation(t *testing.T) {
	if _, err := Train(nil, nil, nil, Config{}); err == nil {
		t.Error("empty set accepted")
	}
	x := [][]float64{{1}, {2}}
	if _, err := Train(x, []float64{1}, nil, Config{}); err == nil {
		t.Error("target mismatch accepted")
	}
	if _, err := Train(x, []float64{1, -1}, []float64{1}, Config{}); err == nil {
		t.Error("weight mismatch accepted")
	}
	if _, err := Train(x, []float64{1, -1}, []float64{0, 0}, Config{}); err == nil {
		t.Error("zero weights accepted")
	}
}
