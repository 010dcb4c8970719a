package cart

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/dataset"
)

// synthDyadicClassification builds a ±1 dataset whose every accumulation
// is exact in float64: feature values live on the /32 grid (32 distinct
// values), weights on the /8 grid in [1, 2), and the 10× false-alarm loss
// multiplies weights by a small integer. With all sums exact, fold order
// cannot perturb a single bit, so the binned/exact equivalence contract
// ("identical trees when every feature has ≤ MaxBins distinct values")
// is testable as byte equality rather than approximate agreement.
func synthDyadicClassification(seed int64, n, nf int) (x [][]float64, y, w []float64) {
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
		score := row[0] + 2*row[1] - row[2]*row[0]
		y[i] = 1
		if score > 0.9 {
			y[i] = -1
		}
		if rng.Float64() < 0.05 {
			y[i] = -y[i]
		}
		w[i] = 1 + math.Floor(rng.Float64()*8)/8
	}
	return x, y, w
}

// synthDyadicRegression is the regression counterpart: /64-grid features,
// a piecewise-polynomial dyadic target, unit weights.
func synthDyadicRegression(seed int64, n, nf int) (x [][]float64, y, w []float64) {
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
		y[i] = 3*row[0] - row[1]*row[1]
		if row[2] > 0.5 {
			y[i] += 2
		}
		w[i] = 1
	}
	return x, y, w
}

// TestBinnedMatchesExactFewDistinct is the equivalence property test: when
// every feature has at most MaxBins distinct values, binning assigns each
// distinct value a singleton bin and the binned grower must produce a
// byte-identical tree (splits, thresholds, gains, leaf stats) to the
// exact presorted-column grower. The datasets are dyadic (see the synth
// helpers) so both growers' accumulations are exact and the comparison is
// legitimate byte equality.
func TestBinnedMatchesExactFewDistinct(t *testing.T) {
	type tc struct {
		name   string
		train  func(p Params) (*Tree, error)
		params Params
	}
	cx, cy, cw := synthDyadicClassification(71, 3000, 6)
	rx, ry, rw := synthDyadicRegression(72, 3000, 6)
	cases := []tc{
		{
			name: "classifier/asymmetric-loss",
			train: func(p Params) (*Tree, error) {
				return TrainClassifier(cx, cy, cw, p)
			},
			params: Params{MinSplit: 4, MinBucket: 2, CP: 1e-9, LossFA: 10},
		},
		{
			name: "classifier/mtry",
			train: func(p Params) (*Tree, error) {
				return TrainClassifier(cx, cy, cw, p)
			},
			params: Params{MinSplit: 4, MinBucket: 2, CP: 1e-9, LossFA: 10, MTry: 3, Seed: 99},
		},
		{
			name: "regressor/deep",
			train: func(p Params) (*Tree, error) {
				return TrainRegressor(rx, ry, rw, p)
			},
			params: Params{MinSplit: 6, MinBucket: 3, CP: 1e-6},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			exact, err := c.train(c.params)
			if err != nil {
				t.Fatal(err)
			}
			if exact.NumNodes() < 7 {
				t.Fatalf("reference tree too small (%d nodes) to prove equivalence", exact.NumNodes())
			}
			ref := marshalTree(t, exact)
			// 64 and 255 both exceed the 32/64 distinct values per
			// feature, so every bin must be a singleton.
			for _, mb := range []int{64, 255} {
				p := c.params
				p.MaxBins = mb
				binned, err := c.train(p)
				if err != nil {
					t.Fatalf("maxBins=%d: %v", mb, err)
				}
				if got := marshalTree(t, binned); string(got) != string(ref) {
					t.Errorf("maxBins=%d tree differs from exact tree", mb)
				}
			}
		})
	}
}

// TestBinnedCoarseBinsStillValid drives MaxBins below the distinct-value
// count, where trees may legitimately differ from the exact path, and
// checks the structural invariants still hold: MinBucket respected at
// every leaf, thresholds finite, and the tree non-degenerate.
func TestBinnedCoarseBinsStillValid(t *testing.T) {
	x, y, w := synthClassification(73, 3000, 6)
	tree, err := TrainClassifier(x, y, w, Params{MinSplit: 4, MinBucket: 2, CP: 1e-9, LossFA: 10, MaxBins: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() < 7 {
		t.Fatalf("degenerate coarse-binned tree: %d nodes", tree.NumNodes())
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			if n.N < 2 {
				t.Errorf("leaf with %d < MinBucket samples", n.N)
			}
			return
		}
		if math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0) {
			t.Errorf("non-finite threshold %v at feature %d", n.Threshold, n.Feature)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}

// TestBinnedNaNRoutesRight trains on data with NaN-holed features and
// checks the reserved-bin semantics: training succeeds, every split
// threshold is finite, and NaN routing at inference (x < t false → right)
// is consistent — a sample that is NaN everywhere must land in a leaf
// reachable by always going right.
func TestBinnedNaNRoutesRight(t *testing.T) {
	x, y, w := synthClassification(74, 2000, 5)
	rng := rand.New(rand.NewSource(75))
	for i := range x {
		if rng.Float64() < 0.15 {
			x[i][rng.Intn(5)] = math.NaN()
		}
	}
	tree, err := TrainClassifier(x, y, w, Params{MinSplit: 4, MinBucket: 2, CP: 1e-9, MaxBins: 32})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() < 3 {
		t.Fatalf("degenerate tree: %d nodes", tree.NumNodes())
	}
	allNaN := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	want := tree.Root
	for !want.IsLeaf() {
		want = want.Right
	}
	if got := tree.Predict(allNaN); !sameLabel(got, want.Value) {
		t.Errorf("all-NaN sample predicted %v, want rightmost leaf value %v", got, want.Value)
	}
}

// TestMaxBinsValidation rejects out-of-range MaxBins on every entry point.
func TestMaxBinsValidation(t *testing.T) {
	x, y, _ := synthClassification(76, 100, 3)
	if _, err := TrainClassifier(x, y, nil, Params{MaxBins: -1}); err == nil {
		t.Error("negative MaxBins accepted by TrainClassifier")
	}
	if _, err := TrainRegressor(x, y, nil, Params{MaxBins: 256}); err == nil {
		t.Error("MaxBins 256 accepted by TrainRegressor (255 is the uint8 ceiling)")
	}
}

// newTestHistGrower assembles a histGrower over a small classification
// dataset for kernel-level tests.
func newTestHistGrower(t testing.TB, kind Kind, maxBins int) (*histGrower, []int32) {
	t.Helper()
	// Dyadic data keeps every histogram sum exact, which the subtraction
	// test relies on for bitwise comparison.
	var x [][]float64
	var y, w []float64
	if kind == Classification {
		x, y, w = synthDyadicClassification(77, 512, 4)
	} else {
		x, y, w = synthDyadicRegression(77, 512, 4)
	}
	p := Params{LossFA: 10, MaxBins: maxBins, Workers: 1}.withDefaults()
	g := &grower{x: x, y: y, w: w, p: p, kind: kind, nf: len(x[0])}
	if kind == Classification {
		g.eff = make([]float64, len(w))
		for i := range w {
			if y[i] < 0 {
				g.eff[i] = w[i] * p.LossMiss
			} else {
				g.eff[i] = w[i] * p.LossFA
			}
		}
	} else {
		g.eff = w
	}
	g.rootTotal = 1
	bm := &dataset.BinnedMatrix{NumSamples: len(x), NumFeatures: g.nf, MaxBins: maxBins,
		Cols: make([]dataset.BinnedColumn, g.nf)}
	for f := 0; f < g.nf; f++ {
		bm.Cols[f] = dataset.BinColumn(x, f, maxBins)
	}
	idx := make([]int32, len(x))
	for i := range idx {
		idx[i] = int32(i)
	}
	return &histGrower{g: g, bm: bm, featStride: (maxBins + 1) * histSlots}, idx
}

// TestHistKernelsZeroAlloc pins the //hddlint:noalloc contract at runtime:
// the histogram accumulate, subtract and scan kernels must not allocate.
func TestHistKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	for _, kind := range []Kind{Classification, Regression} {
		hg, idx := newTestHistGrower(t, kind, 32)
		g := hg.g
		hist := make([]float64, g.nf*hg.featStride)
		seg := hist[:hg.featStride]
		child := make([]float64, len(hist))
		hg.accumulate(idx, hist)
		all := g.statsCol(idx)
		parentMass := all.impurityMass(kind)

		if n := testing.AllocsPerRun(100, func() {
			if kind == Classification {
				accumulateHistClass(seg, hg.bm.Cols[0].Codes, idx, g.y, g.w, g.eff)
			} else {
				accumulateHistReg(seg, hg.bm.Cols[0].Codes, idx, g.y, g.w, g.eff)
			}
		}); n != 0 {
			t.Errorf("%v accumulate kernel allocates %v per run", kind, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			subtractHistInto(hist, child)
		}); n != 0 {
			t.Errorf("%v subtractHistInto allocates %v per run", kind, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if kind == Classification {
				hg.scanFeatureClass(0, all, parentMass, hist)
			} else {
				hg.scanFeatureReg(0, all, parentMass, hist)
			}
		}); n != 0 {
			t.Errorf("%v scan kernel allocates %v per run", kind, n)
		}
	}
}

// TestHistSubtractionMatchesDirect checks the subtraction trick's
// arithmetic on dyadic data: parent − leftChild must equal the directly
// accumulated right child bin for bin, byte for byte.
func TestHistSubtractionMatchesDirect(t *testing.T) {
	hg, idx := newTestHistGrower(t, Classification, 32)
	hist := make([]float64, hg.g.nf*hg.featStride)
	hg.accumulate(idx, hist)
	left, right := idx[:200], idx[200:]
	leftHist := make([]float64, len(hist))
	rightHist := make([]float64, len(hist))
	hg.accumulate(left, leftHist)
	hg.accumulate(right, rightHist)
	subtractHistInto(hist, leftHist)
	for i := range hist {
		// Counts and dyadic-weight masses are exact, so bitwise equality
		// is the correct bar for the subtraction trick here.
		if math.Float64bits(hist[i]) != math.Float64bits(rightHist[i]) {
			t.Fatalf("slot %d: parent-minus-left %v != direct right %v", i, hist[i], rightHist[i])
		}
	}
}
