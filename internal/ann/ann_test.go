package ann

import (
	"math"
	"math/rand"
	"testing"
)

func TestLearnsLinearlySeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x = append(x, []float64{a, b})
		if a+b > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	n, err := Train(x, y, nil, Config{Hidden: 4, Epochs: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range x {
		if (n.Predict(x[i]) < 0) != (y[i] < 0) {
			errs++
		}
	}
	if errs > 12 { // 3%
		t.Errorf("separable errors = %d/400", errs)
	}
}

func TestLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x = append(x, []float64{a, b})
		if (a < 0) != (b < 0) {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	n, err := Train(x, y, nil, Config{Hidden: 8, Epochs: 400, LearningRate: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range x {
		if (n.Predict(x[i]) < 0) != (y[i] < 0) {
			errs++
		}
	}
	if errs > 60 { // 10%: XOR is the classic non-linear benchmark
		t.Errorf("XOR errors = %d/600", errs)
	}
}

func TestOutputsBounded(t *testing.T) {
	x := [][]float64{{1, 2}, {-1, 0}, {3, -3}, {0, 0}}
	y := []float64{1, -1, 1, -1}
	n, err := Train(x, y, nil, Config{Epochs: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := -10; i <= 10; i++ {
		out := n.Predict([]float64{float64(i), float64(-i)})
		if out <= -1 || out >= 1 || math.IsNaN(out) {
			t.Fatalf("Predict out of (-1,1): %v", out)
		}
	}
}

func TestSampleWeightsMatter(t *testing.T) {
	// A single ambiguous cluster: 30% failed. Unweighted, the net should
	// call it good; with failed samples weighted 10×, failed.
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		x = append(x, []float64{rng.NormFloat64() * 0.01})
		if i < 90 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	plain, err := Train(x, y, nil, Config{Hidden: 3, Epochs: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Predict([]float64{0}) < 0 {
		t.Error("unweighted net should predict the majority class (good)")
	}
	w := make([]float64, len(x))
	for i := range w {
		if y[i] < 0 {
			w[i] = 10
		} else {
			w[i] = 1
		}
	}
	boosted, err := Train(x, y, w, Config{Hidden: 3, Epochs: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if boosted.Predict([]float64{0}) > 0 {
		t.Error("10×-weighted failed class should flip the prediction")
	}
}

func TestTrainValidation(t *testing.T) {
	ok := [][]float64{{1}, {2}}
	cases := []struct {
		name string
		x    [][]float64
		y, w []float64
	}{
		{"empty", nil, nil, nil},
		{"target mismatch", ok, []float64{1}, nil},
		{"weight mismatch", ok, []float64{1, -1}, []float64{1}},
		{"ragged", [][]float64{{1}, {2, 3}}, []float64{1, -1}, nil},
		{"zero features", [][]float64{{}, {}}, []float64{1, -1}, nil},
	}
	for _, tc := range cases {
		if _, err := Train(tc.x, tc.y, tc.w, Config{Epochs: 1}); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x = append(x, []float64{rng.NormFloat64()})
		y = append(y, float64(1-2*(i%2)))
	}
	a, _ := Train(x, y, nil, Config{Epochs: 5, Seed: 9})
	b, _ := Train(x, y, nil, Config{Epochs: 5, Seed: 9})
	for i := range x {
		if a.Predict(x[i]) != b.Predict(x[i]) {
			t.Fatal("same seed produced different networks")
		}
	}
	c, _ := Train(x, y, nil, Config{Epochs: 5, Seed: 10})
	diff := false
	for i := range x {
		if a.Predict(x[i]) != c.Predict(x[i]) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical networks")
	}
}

func TestEarlyStopping(t *testing.T) {
	// Trivial data converges immediately; with patience set, training
	// must not take the full epoch budget (observable only indirectly —
	// we assert it still learns).
	x := [][]float64{{-1}, {-0.9}, {0.9}, {1}}
	y := []float64{-1, -1, 1, 1}
	n, err := Train(x, y, nil, Config{Hidden: 2, Epochs: 10000, Patience: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if n.Predict([]float64{-1}) > 0 || n.Predict([]float64{1}) < 0 {
		t.Error("early-stopped net failed to learn trivial data")
	}
}

func TestStandardizationHandlesConstantFeature(t *testing.T) {
	x := [][]float64{{5, -1}, {5, -0.5}, {5, 0.5}, {5, 1}}
	y := []float64{-1, -1, 1, 1}
	n, err := Train(x, y, nil, Config{Hidden: 2, Epochs: 200, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if n.Predict([]float64{5, 1}) < 0 || n.Predict([]float64{5, -1}) > 0 {
		t.Error("constant feature broke learning")
	}
	for _, s := range n.Std {
		if s <= 0 || math.IsNaN(s) {
			t.Errorf("bad std %v", s)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	x := [][]float64{{0, 1}, {1, 0}, {1, 1}, {0, 0}}
	y := []float64{1, 1, -1, -1}
	n, err := Train(x, y, nil, Config{Hidden: 3, Epochs: 20, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	data, err := n.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if back.Predict(x[i]) != n.Predict(x[i]) {
			t.Fatal("round-tripped network predicts differently")
		}
	}
}

func TestUnmarshalRejectsBadNetworks(t *testing.T) {
	cases := []string{
		`not json`,
		`{"numInputs":0,"hidden":1,"w1":[],"w2":[],"mean":[],"std":[]}`,
		`{"numInputs":1,"hidden":2,"w1":[[1,1]],"w2":[1,1,1],"mean":[0],"std":[1]}`,
		`{"numInputs":2,"hidden":1,"w1":[[1,1]],"w2":[1,1],"mean":[0,0],"std":[1,1]}`,
	}
	for i, raw := range cases {
		if _, err := Unmarshal([]byte(raw)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
