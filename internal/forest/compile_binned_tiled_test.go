package forest

import (
	"testing"

	"hddcart/internal/dataset"
)

// TestBinnedForestTiledRange checks PredictTiledRange against per-row
// Predict bit for bit over ranges crossing tile boundaries — the
// TiledPredictor contract the sweep engine relies on.
func TestBinnedForestTiledRange(t *testing.T) {
	x, y, w := trainingData(401, 600, 6, true)
	f, err := TrainClassifier(x, y, w, Config{Trees: 12, Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	probes := binnedProbe(x, 99)
	codes, err := bm.Quantize(probes)
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
	for _, r := range [][2]int{{0, len(codes)}, {0, 0}, {3, 17},
		{dataset.TileRows - 5, dataset.TileRows + 5}, {100, len(codes) - 1}} {
		lo, hi := r[0], r[1]
		b.PredictTiledRange(tm, lo, hi, dst)
		for i := lo; i < hi; i++ {
			if dst[i-lo] != want[i] {
				t.Fatalf("range [%d,%d): row %d = %v, want %v", lo, hi, i, dst[i-lo], want[i])
			}
		}
	}
	// Empty forest: zeros everywhere, like Predict.
	empty, err := (&Forest{}).Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	dst[0] = 7
	empty.PredictTiledRange(tm, 0, 1, dst)
	if dst[0] != 0 {
		t.Fatalf("empty forest tiled = %v, want 0", dst[0])
	}
}

// TestBinnedForestTiledNoAlloc proves the tiled path stays allocation-free
// with a caller buffer.
func TestBinnedForestTiledNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	x, y, w := trainingData(77, 400, 5, true)
	f, err := TrainClassifier(x, y, w, Config{Trees: 8, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Compile().CompileBinned(bm)
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
