package boost

import (
	"testing"

	"hddcart/internal/dataset"
)

// TestBinnedBoostTiledRange checks PredictTiledRange against per-row
// Predict bit for bit over ranges crossing tile boundaries — the TiledPredictor
// contract the sweep engine relies on. The alpha-weighted fold happens in
// learner order per sample on both paths, so equality is exact.
func TestBinnedBoostTiledRange(t *testing.T) {
	x, y := boostData(13, 1000)
	e, err := Train(x, y, nil, Config{Rounds: 8, MaxDepth: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := bm.Quantize(x)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dataset.TileCodes(codes, bm.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(codes))
	for i, row := range codes {
		want[i] = b.Predict(row)
	}
	dst := make([]float64, len(codes))
	for _, r := range [][2]int{{0, len(codes)}, {0, 0}, {5, 40},
		{dataset.TileRows - 7, dataset.TileRows + 9}, {200, len(codes)}} {
		lo, hi := r[0], r[1]
		b.PredictTiledRange(tm, lo, hi, dst)
		for i := lo; i < hi; i++ {
			if dst[i-lo] != want[i] {
				t.Fatalf("range [%d,%d): row %d = %v, want %v", lo, hi, i, dst[i-lo], want[i])
			}
		}
	}
	// Empty ensemble: the alpha total is exactly zero, so every row is 0.
	empty, err := (&Ensemble{}).Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	dst[0] = 7
	empty.PredictTiledRange(tm, 0, 1, dst)
	if dst[0] != 0 {
		t.Fatalf("empty boost tiled = %v, want 0", dst[0])
	}
}

// TestBinnedBoostTiledNoAlloc proves the tiled path stays allocation-free
// with a caller buffer once the pooled per-learner scratch has grown.
func TestBinnedBoostTiledNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	x, y := boostData(5, 600)
	e, err := Train(x, y, nil, Config{Rounds: 6, MaxDepth: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := bm.Quantize(x)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dataset.TileCodes(codes, bm.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(codes))
	if allocs := testing.AllocsPerRun(10, func() {
		b.PredictTiledRange(tm, 0, len(codes), dst)
	}); allocs != 0 {
		t.Fatalf("PredictTiledRange allocated %.0f times per run", allocs)
	}
}
