package cart

import (
	"math"
	"math/rand"
	"testing"
)

// probeGrid returns deterministic probe inputs spanning the training rows
// plus perturbations that straddle every split threshold of the tree.
func probeGrid(tree *Tree, x [][]float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	probes := append([][]float64(nil), x...)
	var collect func(n *Node)
	collect = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		base := x[rng.Intn(len(x))]
		lo := append([]float64(nil), base...)
		hi := append([]float64(nil), base...)
		lo[n.Feature] = n.Threshold - 1e-9
		hi[n.Feature] = n.Threshold + 1e-9
		probes = append(probes, lo, hi)
		collect(n.Left)
		collect(n.Right)
	}
	collect(tree.Root)
	for i := 0; i < 64; i++ {
		p := make([]float64, tree.NumFeatures)
		for j := range p {
			p[j] = rng.NormFloat64() * 10
		}
		probes = append(probes, p)
	}
	return probes
}

// requireBitIdentical checks every prediction surface of the compiled tree
// against the pointer tree on the given probes.
func requireBitIdentical(t *testing.T, tree *Tree, probes [][]float64) {
	t.Helper()
	ct := tree.Compile()
	if err := ct.Validate(); err != nil {
		t.Fatalf("compiled tree invalid: %v", err)
	}
	if ct.NumNodes() != tree.NumNodes() {
		t.Fatalf("node count changed: %d vs %d", ct.NumNodes(), tree.NumNodes())
	}
	for _, p := range probes {
		want, got := tree.Predict(p), ct.Predict(p)
		if want != got {
			t.Fatalf("Predict diverged at %v: pointer %v, compiled %v", p, want, got)
		}
		if tree.PredictFailed(p) != ct.PredictFailed(p) {
			t.Fatalf("PredictFailed diverged at %v", p)
		}
		pw, pg := tree.ProbFailed(p), ct.ProbFailed(p)
		if pw != pg && !(math.IsNaN(pw) && math.IsNaN(pg)) {
			t.Fatalf("ProbFailed diverged at %v: %v vs %v", p, pw, pg)
		}
	}
	// Batch surfaces must match the per-sample path element for element.
	preds := ct.PredictBatch(probes, nil)
	for i, p := range probes {
		if preds[i] != tree.Predict(p) {
			t.Fatalf("PredictBatch[%d] = %v, want %v", i, preds[i], tree.Predict(p))
		}
	}
}

func TestCompiledClassifierBitIdentical(t *testing.T) {
	x, y, w := synthClassification(3, 1200, 6)
	tree, err := TrainClassifier(x, y, w, Params{LossFA: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, tree, probeGrid(tree, x, 17))
}

func TestCompiledRegressorBitIdentical(t *testing.T) {
	x, y, w := synthRegression(5, 900, 5)
	tree, err := TrainRegressor(x, y, w, Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, tree, probeGrid(tree, x, 23))
}

func TestCompiledSingleLeaf(t *testing.T) {
	tree := &Tree{
		Root:        &Node{Value: -1, PFailed: 0.9, N: 3, W: 3},
		Kind:        Classification,
		NumFeatures: 2,
	}
	requireBitIdentical(t, tree, [][]float64{{0, 0}, {1e9, -1e9}})
}

// TestPredictBatchReusesBuffer proves the steady-state batch path is
// allocation-free when the caller supplies the output buffer.
func TestPredictBatchReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	x, y, w := synthClassification(7, 400, 5)
	tree, err := TrainClassifier(x, y, w, Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ct := tree.Compile()
	dst := make([]float64, len(x))
	allocs := testing.AllocsPerRun(20, func() {
		out := ct.PredictBatch(x, dst)
		if &out[0] != &dst[0] {
			t.Fatal("PredictBatch did not reuse the provided buffer")
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictBatch with caller buffer allocated %.0f times per run", allocs)
	}
}

func TestCompiledValidate(t *testing.T) {
	bad := []*CompiledTree{
		{}, // no nodes
		{ // ragged arrays
			Feature: []int32{-1}, Left: []int32{-1}, Right: []int32{-1},
			Threshold: []float64{0}, Value: []float64{0}, PFailed: nil,
		},
		{ // child pointing at itself
			NumFeatures: 2,
			Feature:     []int32{0, -1}, Left: []int32{0, -1}, Right: []int32{1, -1},
			Threshold: []float64{0, 0}, Value: []float64{0, 0}, PFailed: []float64{0, 0},
		},
		{ // feature out of range
			NumFeatures: 1,
			Feature:     []int32{3, -1, -1}, Left: []int32{1, -1, -1}, Right: []int32{2, -1, -1},
			Threshold: []float64{0, 0, 0}, Value: []float64{0, 0, 0}, PFailed: []float64{0, 0, 0},
		},
	}
	for i, ct := range bad {
		if err := ct.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid compiled tree", i)
		}
	}
	x, y, w := synthClassification(11, 300, 4)
	tree, err := TrainClassifier(x, y, w, Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Compile().Validate(); err != nil {
		t.Fatalf("Validate rejected a compiled trained tree: %v", err)
	}
}

// FuzzCompiledTreeEquivalence feeds arbitrary trees and inputs through
// both prediction engines and requires bit-identical outputs — the
// compiled representation's core guarantee.
func FuzzCompiledTreeEquivalence(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(2))
	f.Add([]byte{200, 10, 20, 30, 40, 1, 50, 3, 0, 0, 0, 0, 0, 255, 1, 2, 3, 4, 5}, int64(3))
	f.Add([]byte{0xC8, 0x55, 0x10, 0x99, 0x42, 0xC8, 0x55, 0x10, 0x99, 0x42,
		0xC8, 0x55, 0x10, 0x99, 0x42, 0xC8, 0x55, 0x10, 0x99, 0x42}, int64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		tree := treeFromBytes(data)
		ct := tree.Compile()
		if err := ct.Validate(); err != nil {
			t.Fatalf("compiled fuzz tree invalid: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		probes := make([][]float64, 128)
		for i := range probes {
			p := make([]float64, fuzzNumFeatures)
			for j := range p {
				// Mix magnitudes so probes land on both sides of the
				// byte-derived thresholds; occasionally inject NaN —
				// both engines must route it the same way (< is false).
				switch rng.Intn(8) {
				case 0:
					p[j] = math.NaN()
				case 1:
					p[j] = float64(rng.Intn(64)-32) / 10
				default:
					p[j] = rng.NormFloat64() * 13
				}
			}
			probes[i] = p
		}
		dst := make([]float64, len(probes))
		ct.PredictBatch(probes, dst)
		for i, p := range probes {
			want := tree.Predict(p)
			if got := ct.Predict(p); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("Predict diverged: %v vs %v at %v", got, want, p)
			}
			if dst[i] != want && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
				t.Fatalf("PredictBatch diverged: %v vs %v at %v", dst[i], want, p)
			}
			pw := tree.ProbFailed(p)
			if pg := ct.ProbFailed(p); pg != pw && !(math.IsNaN(pg) && math.IsNaN(pw)) {
				t.Fatalf("ProbFailed diverged: %v vs %v at %v", pg, pw, p)
			}
		}
	})
}

// TestAccumulatePathsNoAlloc proves the //hddlint:noalloc contract for
// the ensemble accumulation kernel: with a caller-supplied buffer,
// AccumulateBatch is allocation-free in steady state (the pooled scratch
// grows once, outside the measured runs).
func TestAccumulatePathsNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	x, y, w := synthClassification(9, 400, 5)
	tree, err := TrainClassifier(x, y, w, Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ct := tree.Compile()
	trees := []*CompiledTree{ct, ct, ct}
	dst := make([]float64, len(x))
	allocs := testing.AllocsPerRun(20, func() { AccumulateBatch(trees, x, dst) })
	if allocs != 0 {
		t.Fatalf("AccumulateBatch allocated %.0f times per run", allocs)
	}
}
