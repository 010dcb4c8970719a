package forest

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/dataset"
)

// binnedProbe builds bin-representative probes: corpus rows, mix-and-match
// rows drawing each feature from a different corpus row, and rows with
// injected NaN. Every finite value is a value some bin represents, which
// is the input set the Exact equivalence guarantee covers.
func binnedProbe(x [][]float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	probes := append([][]float64(nil), x...)
	for i := 0; i < 128; i++ {
		p := make([]float64, len(x[0]))
		for j := range p {
			p[j] = x[rng.Intn(len(x))][j]
		}
		if i%3 == 0 {
			p[rng.Intn(len(p))] = math.NaN()
		}
		probes = append(probes, p)
	}
	return probes
}

// TestBinnedForestBitIdentical checks the binned forest against the float
// compiled forest on bin-representative inputs: trainingData features
// take ≤ 32 distinct values, so a 32-bin matrix gets singleton bins and
// the compile is Exact — every surface must match to the bit, NaN rows
// included.
func TestBinnedForestBitIdentical(t *testing.T) {
	for _, kind := range []string{"classification", "regression"} {
		x, y, w := trainingData(401, 600, 6, kind == "classification")
		var (
			f   *Forest
			err error
		)
		if kind == "classification" {
			f, err = TrainClassifier(x, y, w, Config{Trees: 12, Seed: 2, Workers: 2})
		} else {
			f, err = TrainRegressor(x, y, w, Config{Trees: 12, Seed: 2, Workers: 2})
		}
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		c := f.Compile()
		bm, err := dataset.BinMatrix(x, 32)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.CompileBinned(bm)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !b.Exact {
			t.Fatalf("%s: singleton-bin forest compile should be Exact", kind)
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
		preds := make([]float64, len(codes))
		b.PredictTiledRange(tm, 0, len(codes), preds)
		for i, p := range probes {
			if want, got := f.Predict(p), b.Predict(codes[i]); want != got {
				t.Fatalf("%s: Predict diverged at %d: float %v, binned %v", kind, i, want, got)
			}
			if preds[i] != f.Predict(p) {
				t.Fatalf("%s: PredictTiledRange diverged at %d", kind, i)
			}
		}
	}
}

// TestBinnedForestBatchNoAlloc proves per-row code-space scoring — the
// Monitor's Bins path — allocates nothing.
func TestBinnedForestBatchNoAlloc(t *testing.T) {
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
	var sink float64
	if allocs := testing.AllocsPerRun(10, func() {
		for _, row := range codes {
			sink += b.Predict(row)
		}
	}); allocs != 0 {
		t.Fatalf("per-row Predict allocated %.0f times per run (sink %v)", allocs, sink)
	}
}

func TestBinnedForestEmpty(t *testing.T) {
	bm, err := dataset.BinMatrix([][]float64{{1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Forest{}).Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Predict([]uint8{0}); got != 0 {
		t.Fatalf("empty binned forest Predict = %v, want 0", got)
	}
}
