package cart

import (
	"testing"

	"hddcart/internal/dataset"
)

// tileFixture builds the binned fixture plus its tiled layout.
func tileFixture(t *testing.T, seed int64, n, nf, maxBins int) (*BinnedTree, *dataset.TiledMatrix, [][]uint8) {
	t.Helper()
	tree, bm, _, codes := binnedFixture(t, seed, n, nf, maxBins)
	bt, err := tree.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dataset.TileCodes(codes, bm.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	return bt, tm, codes
}

// TestPredictTiledRangeBitIdentical sweeps row ranges over every seam the
// tiled path has — sub-scalar chunks, tile-unaligned ends, ranges
// crossing tile boundaries, the full matrix — and requires bit-identity
// with the per-row walk.
func TestPredictTiledRangeBitIdentical(t *testing.T) {
	const tr = dataset.TileRows
	bt, tm, codes := tileFixture(t, 17, 3*tr+41, 6, 24)
	ranges := [][2]int{
		{0, 0}, {0, 1}, {5, 5 + minPartitionBatch - 2}, {0, minPartitionBatch},
		{0, tr}, {tr - 3, tr + 3}, {1, tr - 1}, {tr, 2 * tr},
		{tr + 7, 3*tr + 11}, {0, len(codes)}, {len(codes) - 5, len(codes)},
	}
	dst := make([]float64, len(codes))
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		bt.PredictTiledRange(tm, lo, hi, dst)
		for i := lo; i < hi; i++ {
			if want := bt.Predict(codes[i]); dst[i-lo] != want {
				t.Fatalf("range [%d,%d): row %d = %v, want %v", lo, hi, i, dst[i-lo], want)
			}
		}
	}
}

// TestPredictTiledRangeMissingCode routes the reserved missing code
// through the tiled kernels: rows carrying it must score exactly as they
// do through Predict (missing descends right at every split).
func TestPredictTiledRangeMissingCode(t *testing.T) {
	tree, bm, _, codes := binnedFixture(t, 29, 1200, 5, 16)
	bt, err := tree.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([][]uint8, len(codes))
	for i := range codes {
		probes[i] = append([]uint8(nil), codes[i]...)
		probes[i][i%len(codes[i])] = bm.Cols[i%len(codes[i])].MissingCode()
	}
	tm, err := dataset.TileCodes(probes, bm.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(probes))
	bt.PredictTiledRange(tm, 0, len(probes), dst)
	for i := range probes {
		if want := bt.Predict(probes[i]); dst[i] != want {
			t.Fatalf("row %d with missing code = %v, want %v", i, dst[i], want)
		}
	}
}

// TestPredictTiledRangeSingleLeaf covers the degenerate no-split tree.
func TestPredictTiledRangeSingleLeaf(t *testing.T) {
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
	tm, err := dataset.NewTiledMatrix(600, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 600)
	bt.PredictTiledRange(tm, 0, 600, dst)
	for i, v := range dst {
		if v != -1 {
			t.Fatalf("single-leaf tiled row %d = %v, want -1", i, v)
		}
	}
}

// TestAccumulateTiledRange checks ensemble accumulation in tree order per
// row against the scalar fold, across tile boundaries.
func TestAccumulateTiledRange(t *testing.T) {
	var trees []*BinnedTree
	var bm *dataset.BinnedMatrix
	var codes [][]uint8
	for i, seed := range []int64{5, 6, 7} {
		tree, m, _, c := binnedFixture(t, seed, 1500, 4, 16)
		if i == 0 {
			bm, codes = m, c
		}
		bt, err := tree.Compile().CompileBinned(bm)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, bt)
	}
	tm, err := dataset.TileCodes(codes, bm.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, len(codes)}, {3, 700}, {250, 270}} {
		lo, hi := r[0], r[1]
		dst := make([]float64, hi-lo)
		AccumulateTiledRange(trees, tm, lo, hi, dst)
		for i := lo; i < hi; i++ {
			want := 0.0
			for _, bt := range trees {
				want += bt.Predict(codes[i])
			}
			if dst[i-lo] != want {
				t.Fatalf("range [%d,%d): row %d = %v, want %v", lo, hi, i, dst[i-lo], want)
			}
		}
	}
}

// TestAccumulateBatchBinned checks code-space ensemble accumulation
// against the float AccumulateBatch over the same corpus: trees trained
// on one bin budget score the corpus bit-identically in both spaces, so
// the tree-order sums must agree at sizes around the float engine's
// block boundaries.
func TestAccumulateBatchBinned(t *testing.T) {
	x, y, w := synthClassification(5, 1500, 4)
	bm, err := dataset.BinMatrix(x, 16)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := bm.Quantize(x)
	if err != nil {
		t.Fatal(err)
	}
	var float []*CompiledTree
	var trees []*BinnedTree
	for _, lossFA := range []float64{2, 10, 40} {
		tree, err := TrainClassifier(x, y, w, Params{LossFA: lossFA, MaxBins: 16, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ct := tree.Compile()
		bt, err := ct.CompileBinned(bm)
		if err != nil {
			t.Fatal(err)
		}
		float = append(float, ct)
		trees = append(trees, bt)
	}
	tm, err := dataset.TileCodes(codes, bm.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{minPartitionBatch - 1, partitionBlock + 37, len(codes)} {
		want := make([]float64, n)
		AccumulateBatch(float, x[:n], want)
		got := make([]float64, n)
		AccumulateTiledRange(trees, tm, 0, n, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: row %d: binned %v, float %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestTiledRangePanics pins the safety contract: out-of-bounds ranges
// and too-narrow matrices panic instead of reading wild memory.
func TestTiledRangePanics(t *testing.T) {
	bt, tm, codes := tileFixture(t, 3, 400, 5, 8)
	dst := make([]float64, len(codes))
	for _, r := range [][2]int{{-1, 10}, {5, 4}, {0, len(codes) + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range [%d,%d) did not panic", r[0], r[1])
				}
			}()
			bt.PredictTiledRange(tm, r[0], r[1], dst)
		}()
	}
	narrow, err := dataset.NewTiledMatrix(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bt.needLen > 1 {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("narrow matrix did not panic")
				}
			}()
			bt.PredictTiledRange(narrow, 0, 100, dst)
		}()
	}
}

// TestTiledRangeNoAlloc proves the //hddlint:noalloc contract for the
// tiled kernels with caller-supplied buffers.
func TestTiledRangeNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	bt, tm, codes := tileFixture(t, 9, 1100, 5, 32)
	trees := []*BinnedTree{bt, bt, bt}
	dst := make([]float64, len(codes))
	if allocs := testing.AllocsPerRun(20, func() {
		bt.PredictTiledRange(tm, 0, len(codes), dst)
	}); allocs != 0 {
		t.Fatalf("PredictTiledRange allocated %.0f times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		AccumulateTiledRange(trees, tm, 0, len(codes), dst)
	}); allocs != 0 {
		t.Fatalf("AccumulateTiledRange allocated %.0f times per run", allocs)
	}
}

// TestGatheredBatchAfterTiledScratch scores gathered-row float batches
// on a pooled scratch shaped as the tiled engine leaves it — cur and next
// grown to a tile, rows never allocated — so one process can mix sweeps
// with per-drive batch scoring.
func TestGatheredBatchAfterTiledScratch(t *testing.T) {
	tree, _, x, _ := binnedFixture(t, 21, 200, 5, 24)
	ct := tree.Compile()
	const n = 100 // a partitioned batch that fits in one tile
	putTiledScratch := func() {
		batchScratchPool.Put(&batchScratch{cur: make([]int32, tileRows), next: make([]int32, tileRows)})
	}
	check := func(name string, got []float64) {
		t.Helper()
		for i := range got {
			if w := ct.Predict(x[i]); got[i] != w {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], w)
			}
		}
	}
	putTiledScratch()
	check("CompiledTree.PredictBatch", ct.PredictBatch(x[:n], nil))
	putTiledScratch()
	dst := make([]float64, n)
	AccumulateBatch([]*CompiledTree{ct}, x[:n], dst)
	check("AccumulateBatch", dst)
}
