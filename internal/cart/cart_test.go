package cart

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// sepData builds a perfectly separable one-feature dataset: x < 0 failed,
// x ≥ 0 good.
func sepData(n int) (x [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		v := float64(i) - float64(n)/2
		if v >= 0 {
			v++ // leave a gap around 0
		}
		x = append(x, []float64{v})
		if v < 0 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	return x, y
}

func TestEntropy(t *testing.T) {
	if got := entropy(1, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("entropy(1,1) = %v, want 1", got)
	}
	if got := entropy(1, 0); got != 0 {
		t.Errorf("entropy(1,0) = %v, want 0", got)
	}
	if got := entropy(0, 0); got != 0 {
		t.Errorf("entropy(0,0) = %v, want 0", got)
	}
	// entropy(3,1): -(0.75·log2(0.75) + 0.25·log2(0.25)) ≈ 0.8113
	if got := entropy(3, 1); math.Abs(got-0.811278) > 1e-5 {
		t.Errorf("entropy(3,1) = %v, want ≈ 0.8113", got)
	}
}

func TestClassifierSeparable(t *testing.T) {
	x, y := sepData(100)
	tree, err := TrainClassifier(x, y, nil, Params{MinSplit: 2, MinBucket: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got := tree.Predict(x[i]); got != y[i] {
			t.Fatalf("Predict(%v) = %v, want %v", x[i], got, y[i])
		}
	}
	// One split suffices.
	if n := tree.NumNodes(); n != 3 {
		t.Errorf("separable tree has %d nodes, want 3\n%s", n, tree)
	}
	if tree.Root.Feature != 0 {
		t.Errorf("split feature = %d", tree.Root.Feature)
	}
	if tree.Root.Threshold < -1 || tree.Root.Threshold > 1 {
		t.Errorf("threshold = %v, want near 0", tree.Root.Threshold)
	}
}

func TestClassifierXOR(t *testing.T) {
	// Two-feature XOR: needs depth ≥ 3 (two levels of splits).
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x = append(x, []float64{a, b})
		if (a < 0) != (b < 0) {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	tree, err := TrainClassifier(x, y, nil, Params{MinSplit: 4, MinBucket: 2, CP: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range x {
		if tree.Predict(x[i]) != y[i] {
			errs++
		}
	}
	if errs > 8 { // 2%
		t.Errorf("XOR training errors = %d/400", errs)
	}
	if tree.Depth() < 3 {
		t.Errorf("XOR tree depth = %d, want ≥ 3", tree.Depth())
	}
}

func TestMinBucketRespected(t *testing.T) {
	x, y := sepData(100)
	tree, err := TrainClassifier(x, y, nil, Params{MinSplit: 10, MinBucket: 8})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() && n.N < 8 {
			t.Errorf("leaf with %d < MinBucket samples", n.N)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}

func TestMinSplitStopsGrowth(t *testing.T) {
	x, y := sepData(10)
	tree, err := TrainClassifier(x, y, nil, Params{MinSplit: 50, MinBucket: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Error("node below MinSplit must not be split")
	}
}

func TestMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x = append(x, []float64{rng.Float64()})
		y = append(y, float64(1-2*(rng.Intn(2)))) // random labels: deep tree without limit
	}
	tree, err := TrainClassifier(x, y, nil, Params{MinSplit: 2, MinBucket: 1, MaxDepth: 4, CP: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 4 {
		t.Errorf("depth = %d, want ≤ 4", d)
	}
}

func TestLossWeightSuppressesFalseAlarms(t *testing.T) {
	// A mixed region with 60% failed / 40% good: symmetric loss labels
	// it failed; a 10× false-alarm loss labels it good.
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		x = append(x, []float64{0})
		y = append(y, -1)
	}
	for i := 0; i < 40; i++ {
		x = append(x, []float64{0})
		y = append(y, 1)
	}
	sym, err := TrainClassifier(x, y, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Predict([]float64{0}) != -1 {
		t.Error("symmetric loss should label majority-failed region failed")
	}
	asym, err := TrainClassifier(x, y, nil, Params{LossFA: 10})
	if err != nil {
		t.Fatal(err)
	}
	if asym.Predict([]float64{0}) != 1 {
		t.Error("10× false-alarm loss should label the region good")
	}
}

func TestSampleWeightsShiftLabel(t *testing.T) {
	// 10 failed vs 90 good at the same point: boosting failed weights to
	// parity should not flip the label; boosting beyond should.
	var x [][]float64
	var y []float64
	var w []float64
	for i := 0; i < 10; i++ {
		x, y, w = append(x, []float64{0}), append(y, -1.0), append(w, 20)
	}
	for i := 0; i < 90; i++ {
		x, y, w = append(x, []float64{0}), append(y, 1.0), append(w, 1)
	}
	tree, err := TrainClassifier(x, y, w, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{0}) != -1 {
		t.Error("weighted failed mass 200 vs 90 should label failed")
	}
}

func TestWeightedSplitChoice(t *testing.T) {
	// Feature 0 separates the heavily weighted samples; feature 1
	// separates the lightly weighted ones. The split must use feature 0.
	x := [][]float64{
		{0, 0}, {0, 1}, {1, 0}, {1, 1},
		{0, 0}, {0, 1}, {1, 0}, {1, 1},
	}
	y := []float64{-1, -1, 1, 1, -1, -1, 1, 1}
	w := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	tree, err := TrainClassifier(x, y, w, Params{MinSplit: 2, MinBucket: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() || tree.Root.Feature != 0 {
		t.Errorf("split should use feature 0:\n%s", tree)
	}
}

func TestPruneCollapsesWeakSplits(t *testing.T) {
	// Nearly pure data with a few noisy labels: with CP=0 the tree
	// overfits; raising CP shrinks it.
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []float64
	for i := 0; i < 1000; i++ {
		v := rng.Float64()
		x = append(x, []float64{v})
		label := 1.0
		if v < 0.3 {
			label = -1
		}
		if rng.Float64() < 0.05 {
			label = -label
		}
		y = append(y, label)
	}
	full, err := TrainClassifier(x, y, nil, Params{MinSplit: 4, MinBucket: 2, CP: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := TrainClassifier(x, y, nil, Params{MinSplit: 4, MinBucket: 2, CP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumNodes() >= full.NumNodes() {
		t.Errorf("pruned %d nodes, full %d", pruned.NumNodes(), full.NumNodes())
	}
	// The main split must survive.
	if pruned.Root.IsLeaf() {
		t.Error("CP=0.01 should keep the dominant split")
	}
	if th := pruned.Root.Threshold; th < 0.25 || th > 0.35 {
		t.Errorf("dominant threshold = %v, want ≈ 0.3", th)
	}
}

func TestPruneEverything(t *testing.T) {
	x, y := sepData(100)
	tree, err := TrainClassifier(x, y, nil, Params{MinSplit: 2, MinBucket: 1})
	if err != nil {
		t.Fatal(err)
	}
	Prune(tree, math.Inf(1))
	if !tree.Root.IsLeaf() {
		t.Error("pruning with cp=∞ should leave a lone root")
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
		{"len mismatch", ok, []float64{1}, nil},
		{"weight mismatch", ok, []float64{1, -1}, []float64{1}},
		{"ragged", [][]float64{{1}, {2, 3}}, []float64{1, -1}, nil},
		{"bad target", ok, []float64{1, 0.5}, nil},
		{"negative weight", ok, []float64{1, -1}, []float64{1, -1}},
		{"zero features", [][]float64{{}, {}}, []float64{1, -1}, nil},
	}
	for _, tc := range cases {
		if _, err := TrainClassifier(tc.x, tc.y, tc.w, Params{}); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Regression accepts non-±1 targets.
	if _, err := TrainRegressor(ok, []float64{0.5, 0.7}, nil, Params{MinSplit: 2, MinBucket: 1}); err != nil {
		t.Errorf("regressor rejected valid targets: %v", err)
	}
}

func TestRegressorPiecewiseConstant(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x = append(x, []float64{float64(i)})
		if i < 25 {
			y = append(y, 2)
		} else {
			y = append(y, 8)
		}
	}
	tree, err := TrainRegressor(x, y, nil, Params{MinSplit: 4, MinBucket: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{3}); got != 2 {
		t.Errorf("Predict(3) = %v, want 2", got)
	}
	if got := tree.Predict([]float64{40}); got != 8 {
		t.Errorf("Predict(40) = %v, want 8", got)
	}
	if n := tree.NumNodes(); n != 3 {
		t.Errorf("piecewise tree has %d nodes, want 3", n)
	}
}

func TestRegressorApproximatesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		v := rng.Float64()
		x = append(x, []float64{v})
		y = append(y, 3*v+rng.NormFloat64()*0.05)
	}
	tree, err := TrainRegressor(x, y, nil, Params{MinSplit: 20, MinBucket: 7, CP: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	// RMSE of the fit should be well under the signal range.
	var se float64
	for i := range x {
		d := tree.Predict(x[i]) - 3*x[i][0]
		se += d * d
	}
	rmse := math.Sqrt(se / float64(len(x)))
	if rmse > 0.3 {
		t.Errorf("RMSE = %v, want < 0.3", rmse)
	}
}

func TestRegressorLeafIsWeightedMean(t *testing.T) {
	x := [][]float64{{0}, {0}, {0}}
	y := []float64{1, 2, 9}
	w := []float64{1, 1, 2}
	tree, err := TrainRegressor(x, y, w, Params{MinSplit: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + 2 + 18) / 4.0
	if got := tree.Predict([]float64{0}); math.Abs(got-want) > 1e-12 {
		t.Errorf("leaf value = %v, want %v", got, want)
	}
}

func TestVariableImportance(t *testing.T) {
	// Feature 1 is informative, features 0 and 2 are noise.
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		f1 := rng.Float64()
		x = append(x, []float64{rng.Float64(), f1, rng.Float64()})
		if f1 < 0.5 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	tree, err := TrainClassifier(x, y, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.VariableImportance()
	if len(imp) != 3 {
		t.Fatalf("importance length = %d", len(imp))
	}
	if imp[1] <= imp[0] || imp[1] <= imp[2] {
		t.Errorf("importance = %v, want feature 1 dominant", imp)
	}
}

func TestRules(t *testing.T) {
	x, y := sepData(100)
	tree, _ := TrainClassifier(x, y, nil, Params{MinSplit: 2, MinBucket: 1})
	tree.FeatureNames = []string{"Power On Hours"}
	all := tree.Rules(false)
	failed := tree.Rules(true)
	if len(all) != 2 || len(failed) != 1 {
		t.Fatalf("rules: all=%d failed=%d", len(all), len(failed))
	}
	s := failed[0].String(tree.FeatureNames)
	if !strings.Contains(s, "Power On Hours <") {
		t.Errorf("rule text = %q", s)
	}
	if failed[0].Value != -1 {
		t.Errorf("failed rule value = %v", failed[0].Value)
	}
}

func TestStringRendering(t *testing.T) {
	x, y := sepData(40)
	tree, _ := TrainClassifier(x, y, nil, Params{MinSplit: 2, MinBucket: 1})
	tree.FeatureNames = []string{"POH"}
	s := tree.String()
	for _, want := range []string{"POH <", "FAILED", "good"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	reg, _ := TrainRegressor(x, y, nil, Params{MinSplit: 2, MinBucket: 1})
	if !strings.Contains(reg.String(), "value=") {
		t.Error("regression String() missing value=")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64()})
		if x[i][0]+x[i][1] < 1 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	tree, err := TrainClassifier(x, y, nil, Params{CP: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	tree.FeatureNames = []string{"a", "b"}
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != tree.Kind || back.NumFeatures != tree.NumFeatures {
		t.Error("metadata lost in round trip")
	}
	if back.NumNodes() != tree.NumNodes() {
		t.Errorf("node count %d vs %d", back.NumNodes(), tree.NumNodes())
	}
	// Property: identical predictions everywhere.
	err = quick.Check(func(a, b float64) bool {
		p := []float64{math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)}
		return tree.Predict(p) == back.Predict(p)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsBadTrees(t *testing.T) {
	cases := []string{
		`{"kind":9,"numFeatures":1,"nodes":[{"left":-1,"right":-1}]}`,
		`{"kind":1,"numFeatures":1,"nodes":[]}`,
		`{"kind":1,"numFeatures":1,"nodes":[{"left":0,"right":-1}]}`,                                                          // self/one-child
		`{"kind":1,"numFeatures":1,"nodes":[{"left":5,"right":6}]}`,                                                           // out of range
		`{"kind":1,"numFeatures":1,"nodes":[{"feature":3,"left":1,"right":2},{"left":-1,"right":-1},{"left":-1,"right":-1}]}`, // bad feature
		`not json`,
	}
	for i, raw := range cases {
		var tr Tree
		if err := json.Unmarshal([]byte(raw), &tr); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestTrainingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		if x[i][0] < 0.4 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	t1, _ := TrainClassifier(x, y, nil, Params{})
	t2, _ := TrainClassifier(x, y, nil, Params{})
	d1, _ := json.Marshal(t1)
	d2, _ := json.Marshal(t2)
	if string(d1) != string(d2) {
		t.Error("training is not deterministic")
	}
}

func TestKindString(t *testing.T) {
	if Classification.String() != "classification" || Regression.String() != "regression" {
		t.Error("Kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind should format numerically")
	}
}

func TestPredictionsPartitionSpace(t *testing.T) {
	// Property: every point lands in exactly one leaf and prediction is
	// one of the leaf values.
	rng := rand.New(rand.NewSource(8))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
		if x[i][0]*x[i][1] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	tree, err := TrainClassifier(x, y, nil, Params{CP: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		p := tree.Predict([]float64{a, b})
		return p == 1 || p == -1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMTryValidation(t *testing.T) {
	x, y := sepData(50)
	if _, err := TrainClassifier(x, y, nil, Params{MTry: -1}); err == nil {
		t.Error("negative MTry accepted")
	}
	if _, err := TrainClassifier(x, y, nil, Params{MTry: 5}); err == nil {
		t.Error("MTry larger than feature count accepted")
	}
	// MTry equal to the feature count degenerates to the full search.
	full, err := TrainClassifier(x, y, nil, Params{MinSplit: 2, MinBucket: 1, MTry: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if full.Predict(x[i]) != y[i] {
			t.Fatal("MTry = numFeatures changed the (single-feature) result")
		}
	}
}
