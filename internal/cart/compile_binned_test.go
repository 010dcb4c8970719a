package cart

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/dataset"
)

// binnedFixture trains a binned classifier, rebuilds the matching
// BinnedMatrix, and quantizes the training corpus — the setup every
// binned-inference test shares.
func binnedFixture(t *testing.T, seed int64, n, nf, maxBins int) (*Tree, *dataset.BinnedMatrix, [][]float64, [][]uint8) {
	t.Helper()
	x, y, w := synthClassification(seed, n, nf)
	tree, err := TrainClassifier(x, y, w, Params{LossFA: 10, MaxBins: maxBins, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, maxBins)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := bm.Quantize(x)
	if err != nil {
		t.Fatal(err)
	}
	return tree, bm, x, codes
}

// requireBinnedBitIdentical checks every binned prediction surface
// against the float compiled tree, row for row.
func requireBinnedBitIdentical(t *testing.T, ct *CompiledTree, bt *BinnedTree, x [][]float64, codes [][]uint8) {
	t.Helper()
	for i := range x {
		want, got := ct.Predict(x[i]), bt.Predict(codes[i])
		if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
			t.Fatalf("row %d: Predict diverged: float %v, binned %v", i, want, got)
		}
	}
	tm, err := dataset.TileCodes(codes, bt.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(codes))
	bt.PredictTiledRange(tm, 0, len(codes), preds)
	for i := range codes {
		if want := bt.Predict(codes[i]); preds[i] != want && !(math.IsNaN(preds[i]) && math.IsNaN(want)) {
			t.Fatalf("PredictTiledRange[%d] = %v, want %v", i, preds[i], want)
		}
	}
}

// TestCompileBinnedCorpusBitIdentical is the training-corpus half of the
// equivalence contract: a binned-trained tree scores every corpus row
// bit-identically through the float and binned engines, at every bin
// budget — including coarse ones where thresholds straddle bins and
// Exact is cleared.
func TestCompileBinnedCorpusBitIdentical(t *testing.T) {
	for _, maxBins := range []int{1, 8, 32, 255} {
		tree, bm, x, codes := binnedFixture(t, 41, 900, 6, maxBins)
		ct := tree.Compile()
		bt, err := ct.CompileBinned(bm)
		if err != nil {
			t.Fatalf("maxBins %d: %v", maxBins, err)
		}
		if bt.NumNodes() != ct.NumNodes() {
			t.Fatalf("maxBins %d: node count changed: %d vs %d", maxBins, bt.NumNodes(), ct.NumNodes())
		}
		requireBinnedBitIdentical(t, ct, bt, x, codes)
	}
}

// TestCompileBinnedExactUniversal is the Exact half of the contract: when
// every threshold cleanly separates bins (singleton-bin fast path), the
// binned tree matches the float path on arbitrary bin-representative
// inputs, not just corpus rows — including rows with injected NaN, which
// must route right through the reserved missing code exactly as the
// float path routes NaN.
func TestCompileBinnedExactUniversal(t *testing.T) {
	x, y, w := synthDyadicClassification(7, 600, 5)
	tree, err := TrainClassifier(x, y, w, Params{LossFA: 10, MaxBins: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, 64)
	if err != nil {
		t.Fatal(err)
	}
	ct := tree.Compile()
	bt, err := ct.CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if !bt.Exact {
		t.Fatal("singleton-bin compile should be Exact")
	}
	// Corpus rows with NaN injected feature by feature stay within the
	// bin-representative input set (NaN maps to the reserved code).
	rng := rand.New(rand.NewSource(99))
	probes := append([][]float64(nil), x...)
	for i := 0; i < 200; i++ {
		p := append([]float64(nil), x[rng.Intn(len(x))]...)
		p[rng.Intn(len(p))] = math.NaN()
		probes = append(probes, p)
	}
	codes, err := bm.Quantize(probes)
	if err != nil {
		t.Fatal(err)
	}
	requireBinnedBitIdentical(t, ct, bt, probes, codes)
}

// TestCompileBinnedExactFlag pins the straddle rule: a threshold strictly
// inside a bin's value range clears Exact, and the compiled cut is the
// first bin not entirely below the threshold.
func TestCompileBinnedExactFlag(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	bm, err := dataset.BinMatrix(x, 2) // bins [1,4] and [5,8]
	if err != nil {
		t.Fatal(err)
	}
	build := func(threshold float64) *CompiledTree {
		ct := (&Tree{
			Root: &Node{
				Feature: 0, Threshold: threshold,
				Left:  &Node{Value: -1, PFailed: 1, N: 1, W: 1},
				Right: &Node{Value: 1, PFailed: 0, N: 1, W: 1},
			},
			Kind: Classification, NumFeatures: 1,
		}).Compile()
		if err := ct.Validate(); err != nil {
			t.Fatal(err)
		}
		return ct
	}
	// 4.5 is the edge between the bins: exact, cut 1.
	bt, err := build(4.5).CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if !bt.Exact || bt.Cut[0] != 1 {
		t.Fatalf("edge threshold: Exact=%v Cut=%d, want true/1", bt.Exact, bt.Cut[0])
	}
	// 2.5 falls strictly inside bin 0's [1,4]: inexact, cut 0 (the whole
	// bin routes right — conservative).
	bt, err = build(2.5).CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Exact || bt.Cut[0] != 0 {
		t.Fatalf("straddling threshold: Exact=%v Cut=%d, want false/0", bt.Exact, bt.Cut[0])
	}
}

func TestCompileBinnedErrors(t *testing.T) {
	x, y, w := synthClassification(3, 200, 4)
	tree, err := TrainClassifier(x, y, w, Params{MaxBins: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ct := tree.Compile()
	if _, err := ct.CompileBinned(nil); err == nil {
		t.Error("nil matrix accepted")
	}
	narrow, err := dataset.BinMatrix([][]float64{{1}, {2}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.CompileBinned(narrow); err == nil {
		t.Error("narrow matrix accepted")
	}
	bad := &CompiledTree{}
	if _, err := bad.CompileBinned(narrow); err == nil {
		t.Error("invalid compiled tree accepted")
	}
	// A hand-built tree that passes Validate but breaks sibling
	// adjacency: the root's children are nodes 1 and 3, and the packed
	// binned nodes would route right to node 2.
	gapped := &CompiledTree{
		Kind: Classification, NumFeatures: 1,
		Feature:   []int32{0, -1, -1, -1},
		Left:      []int32{1, -1, -1, -1},
		Right:     []int32{3, -1, -1, -1},
		Threshold: []float64{1.5, 0, 0, 0},
		Value:     []float64{0, -1, 0, 1},
	}
	if err := gapped.Validate(); err != nil {
		t.Fatalf("gapped fixture invalid: %v", err)
	}
	if _, err := gapped.CompileBinned(narrow); err == nil {
		t.Error("tree without sibling adjacency accepted")
	}
	// A hand-built tree splitting on feature 2 of a one-column matrix.
	wide := &CompiledTree{
		Kind: Classification, NumFeatures: 3,
		Feature:   []int32{2, -1, -1},
		Left:      []int32{1, -1, -1},
		Right:     []int32{2, -1, -1},
		Threshold: []float64{1.5, 0, 0},
		Value:     []float64{0, -1, 1},
	}
	if err := wide.Validate(); err != nil {
		t.Fatalf("wide fixture invalid: %v", err)
	}
	if _, err := wide.CompileBinned(narrow); err == nil {
		t.Error("tree reading past the matrix width accepted")
	}
}

// TestBinnedSingleLeaf covers the degenerate no-split tree through both
// the per-row and tiled batch paths.
func TestBinnedSingleLeaf(t *testing.T) {
	ct := (&Tree{
		Root: &Node{Value: -1, PFailed: 0.9, N: 3, W: 3},
		Kind: Classification, NumFeatures: 2,
	}).Compile()
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix([][]float64{{0, 1}, {2, 3}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := ct.CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([][]uint8, 200)
	for i := range codes {
		codes[i] = []uint8{uint8(i % 3), uint8(i % 2)}
	}
	tm, err := dataset.TileCodes(codes, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(codes))
	bt.PredictTiledRange(tm, 0, len(codes), dst)
	for i, got := range dst {
		if got != -1 || bt.Predict(codes[i]) != -1 {
			t.Fatalf("single-leaf row %d predicted %v, want -1", i, got)
		}
	}
}

// TestBinnedBatchBoundaries sweeps batch sizes that straddle the
// per-row walk cutoff, the tile height and a 1024-row block,
// proving the tiled partition engine is bit-identical to the per-row walk
// at every seam.
func TestBinnedBatchBoundaries(t *testing.T) {
	tree, bm, _, codes := binnedFixture(t, 13, 2600, 5, 24)
	bt, err := tree.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, minPartitionBatch - 1, minPartitionBatch, minPartitionBatch + 1,
		tileRows - 1, tileRows + 1, 1024 - 1, 1024, 1024 + 1, len(codes)} {
		batch := codes[:n]
		tm, err := dataset.TileCodes(batch, bm.NumFeatures)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		bt.PredictTiledRange(tm, 0, n, got)
		for i := range batch {
			if want := bt.Predict(batch[i]); got[i] != want {
				t.Fatalf("n=%d: PredictTiledRange[%d] = %v, want %v", n, i, got[i], want)
			}
		}
	}
}

// TestBinnedBatchNoAlloc proves the //hddlint:noalloc contract of the
// per-row code-space path the Monitor runs: QuantizeRow into a caller
// buffer, then Predict on the codes.
func TestBinnedBatchNoAlloc(t *testing.T) {
	tree, bm, _, _ := binnedFixture(t, 9, 400, 5, 32)
	bt, err := tree.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]uint8, bm.NumFeatures)
	var sink float64
	allocs := testing.AllocsPerRun(20, func() {
		bm.QuantizeRow([]float64{1, 2, 3, 4, 5}, row)
		sink += bt.Predict(row)
	})
	if allocs != 0 {
		t.Fatalf("QuantizeRow + Predict allocated %.0f times per run (sink %v)", allocs, sink)
	}
}

// TestBinnedShortRowRejected pins the width contract of the tiled engine:
// a code matrix exactly as wide as the deepest feature the tree reads
// (narrower than NumFeatures) scores correctly, and one column less is
// rejected with a panic rather than read out of bounds.
func TestBinnedShortRowRejected(t *testing.T) {
	tree, bm, _, codes := binnedFixture(t, 21, 800, 6, 16)
	bt, err := tree.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if bt.needLen == 0 {
		t.Skip("degenerate tree")
	}
	short := make([][]uint8, len(codes))
	for i := range codes {
		short[i] = codes[i][:bt.needLen]
	}
	tm, err := dataset.TileCodes(short, bt.needLen)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(short))
	bt.PredictTiledRange(tm, 0, len(short), got)
	for i := range short {
		if want := bt.Predict(codes[i]); got[i] != want {
			t.Fatalf("short-row batch[%d] = %v, want %v", i, got[i], want)
		}
	}
	narrow, err := dataset.NewTiledMatrix(len(codes), bt.needLen-1)
	if err != nil {
		t.Skip("tree reads only feature 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("matrix narrower than the tree's deepest feature was accepted")
		}
	}()
	bt.PredictTiledRange(narrow, 0, len(codes), got)
}
