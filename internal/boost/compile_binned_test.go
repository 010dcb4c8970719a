package boost

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/dataset"
)

// TestBinnedBoostBitIdentical checks the binned ensemble against the
// float compiled path. boostData features take ≤ 32 distinct values, so
// a 32-bin matrix is singleton-binned, the compile is Exact, and every
// bin-representative probe (corpus rows, feature mix-and-match, NaN
// injections) must score bit-identically.
func TestBinnedBoostBitIdentical(t *testing.T) {
	x, y := boostData(13, 1000)
	e, err := Train(x, y, nil, Config{Rounds: 8, MaxDepth: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Compile()
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Exact {
		t.Fatal("singleton-bin boost compile should be Exact")
	}
	rng := rand.New(rand.NewSource(31))
	probes := append([][]float64(nil), x...)
	for i := 0; i < 128; i++ {
		p := []float64{x[rng.Intn(len(x))][0], x[rng.Intn(len(x))][1], x[rng.Intn(len(x))][2]}
		if i%3 == 0 {
			p[rng.Intn(3)] = math.NaN()
		}
		probes = append(probes, p)
	}
	codes, err := bm.Quantize(probes)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dataset.TileCodes(codes, bm.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(codes))
	b.PredictTiledRange(tm, 0, len(codes), preds)
	for i, p := range probes {
		want := c.Predict(p)
		if got := b.Predict(codes[i]); got != want {
			t.Fatalf("Predict diverged at %d: float %v, binned %v", i, want, got)
		}
		if preds[i] != want {
			t.Fatalf("PredictTiledRange diverged at %d: %v vs %v", i, preds[i], want)
		}
		if c.PredictFailed(p) != b.PredictFailed(codes[i]) {
			t.Fatalf("PredictFailed diverged at %d", i)
		}
	}
}

// TestBinnedBoostCoarseCorpus pins the training-corpus half of the
// contract at ensemble level: boosting reweights but never resamples, so
// every round's learner bins the full corpus exactly as BinMatrix does —
// at a matching MaxBins the corpus scores match to the bit even when
// thresholds straddle the coarse bins.
func TestBinnedBoostCoarseCorpus(t *testing.T) {
	x, y := boostData(29, 800)
	cfg := Config{Rounds: 6, MaxDepth: 3, Workers: 1}
	cfg.Params.MaxBins = 8
	e, err := Train(x, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := e.Compile()
	bm, err := dataset.BinMatrix(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CompileBinned(bm)
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
	preds := make([]float64, len(codes))
	b.PredictTiledRange(tm, 0, len(codes), preds)
	for i, row := range x {
		want := c.Predict(row)
		if got := b.Predict(codes[i]); got != want {
			t.Fatalf("corpus row %d diverged: float %v, binned %v", i, want, got)
		}
		if preds[i] != want {
			t.Fatalf("corpus PredictTiledRange[%d] diverged", i)
		}
	}
}

// TestBinnedBoostBatchNoAlloc proves per-row code-space scoring — the
// Monitor's Bins path — allocates nothing.
func TestBinnedBoostBatchNoAlloc(t *testing.T) {
	x, y := boostData(17, 600)
	e, err := Train(x, y, nil, Config{Rounds: 5, MaxDepth: 3, Workers: 1})
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
	var sink float64
	if allocs := testing.AllocsPerRun(10, func() {
		for _, row := range codes {
			sink += b.Predict(row)
		}
	}); allocs != 0 {
		t.Fatalf("per-row Predict allocated %.0f times per run (sink %v)", allocs, sink)
	}
}

func TestBinnedBoostEmpty(t *testing.T) {
	bm, err := dataset.BinMatrix([][]float64{{1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Ensemble{}).Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Predict([]uint8{0}); got != 0 {
		t.Fatalf("empty binned ensemble Predict = %v, want 0", got)
	}
}
