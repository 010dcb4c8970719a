package equiv

import (
	"math/rand"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/cpu"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/faultinject"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// chaosCorpus rebuilds the PR 4 chaos-suite corpora: SMART telemetry from
// the synthetic fleet, both pristine and corrupted by every record-level
// injector, pushed through the production sanitize → extract pipeline.
// The returned matrix is what a real retraining over dirty telemetry
// would see — duplicated samples, reordered windows, out-of-range values,
// gap-riddled timestamps.
func chaosCorpus(t *testing.T) (x [][]float64, y []float64) {
	t.Helper()
	const chaosSeed = 4242
	fleet, err := simulate.New(simulate.Config{Seed: chaosSeed, GoodScale: 0.001, FailedScale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	features := smart.CriticalFeatures()
	label := func(d simulate.Drive, hour int) float64 {
		if d.Failed && hour >= d.FailHour-d.Window {
			return -1
		}
		return 1
	}
	add := func(d simulate.Drive, s detect.Series, stride int) {
		for i := range s.X {
			l := label(d, s.Hours[i])
			if l > 0 && i%stride != 0 {
				continue // subsample healthy hours, as the chaos suite does
			}
			x = append(x, s.X[i])
			y = append(y, l)
		}
	}
	injectors := faultinject.RecordInjectors()
	for _, d := range fleet.Drives() {
		recs := fleet.Trace(d.Index)
		add(d, detect.ExtractSeries(features, recs, 0, len(recs)), 24)
		// Every injector corrupts every drive's trace; the corrupted copy
		// rides through the same sanitize → extract pipeline as production
		// ingest, so whatever survives sanitization lands in the corpus.
		for _, inj := range injectors {
			rng := rand.New(rand.NewSource(faultinject.SeedFor(chaosSeed, inj.Name, d.Serial)))
			dirty, _ := smart.SanitizeTrace(inj.Apply(rng, recs, 0.3))
			add(d, detect.ExtractSeries(features, dirty, 0, len(dirty)), 48)
		}
	}
	if len(x) < 500 {
		t.Fatalf("chaos corpus too small: %d rows", len(x))
	}
	return x, y
}

// TestChaosCorpusBinnedEquivalence is the dirty-telemetry property test:
// train over the chaos corpora with a bin budget, bin the same corpora
// with the same budget, and Quantize → CompileBinned → score must equal
// the float-path score bit for bit on every row — including the rows the
// injectors mangled. This exercises the corpus half of the equivalence
// contract on realistic (not generated) data.
func TestChaosCorpusBinnedEquivalence(t *testing.T) {
	x, y := chaosCorpus(t)
	const maxBins = 64
	tree, err := cart.TrainClassifier(x, y, nil, cart.Params{
		MinSplit: 20, MinBucket: 7, CP: 1e-4, LossFA: 5, MaxBins: maxBins, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, maxBins)
	if err != nil {
		t.Fatal(err)
	}
	ct := tree.Compile()
	bt, err := ct.CompileBinned(bm)
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
	c := &Case{X: x, Y: y, Bins: bm, Codes: codes, Tree: tree, Compiled: ct, Binned: bt, Tiled: tm}
	if err := CheckAll(c, verdictPaths()...); err != nil {
		t.Fatal(err)
	}
	// The chaos corpus also replays through every dispatch tier: fault
	// injection produces the missing-code pile-ups and duplicated rows
	// that stress the vector kernels' seam handling.
	for _, p := range []Path{TiledRange(0), TiledWorkers(4)} {
		forced := make([]Path, 0, 3)
		for _, k := range cpu.Kernels() {
			forced = append(forced, ForceKernel(k, p))
		}
		if err := CheckAll(c, forced...); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("chaos corpus: %d rows, %d injectors, tree %d nodes, exact=%v, kernels=%v",
		len(x), len(faultinject.RecordInjectors()), len(bt.Feature), bt.Exact, cpu.Kernels())
}
