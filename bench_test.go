package hddcart

// The benchmark harness: one benchmark per table and figure of the paper
// (each regenerates the experiment at a reduced fleet scale and reports
// the headline metrics via b.ReportMetric), plus ablation benchmarks for
// the design choices called out in DESIGN.md and micro-benchmarks of the
// core operations.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkTable3 -benchmem

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/experiments"
	"hddcart/internal/forest"
	"hddcart/internal/reliability"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// benchConfig is the reduced fleet used by experiment benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1, GoodScale: 0.02, FailedScale: 0.15, ANNEpochs: 40}
}

// benchExperiment runs one registered experiment per iteration on a fresh
// environment (no memo reuse across iterations).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(benchConfig(), []string{id}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Dataset(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable3FeatureSets(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4TimeWindow(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkFigure2VotingROC(b *testing.B)     { benchExperiment(b, "figure2") }
func BenchmarkFigure3TIAHistANN(b *testing.B)    { benchExperiment(b, "figure3") }
func BenchmarkFigure4TIAHistCT(b *testing.B)     { benchExperiment(b, "figure4") }
func BenchmarkFigure5FamilyQ(b *testing.B)       { benchExperiment(b, "figure5") }
func BenchmarkTable5SmallDatasets(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkFigure6Updating(b *testing.B)      { benchExperiment(b, "figure6") }
func BenchmarkFigure7UpdatingANN(b *testing.B)   { benchExperiment(b, "figure7") }
func BenchmarkFigure8UpdatingQ(b *testing.B)     { benchExperiment(b, "figure8") }
func BenchmarkFigure9UpdatingQANN(b *testing.B)  { benchExperiment(b, "figure9") }
func BenchmarkFigure10HealthDegree(b *testing.B) { benchExperiment(b, "figure10") }
func BenchmarkTable6MTTDL(b *testing.B)          { benchExperiment(b, "table6") }
func BenchmarkFigure12RAIDMTTDL(b *testing.B)    { benchExperiment(b, "figure12") }
func BenchmarkFeatureSelection(b *testing.B)     { benchExperiment(b, "featsel") }

// --- Ablation benchmarks -------------------------------------------------
//
// Each ablation trains the CT pipeline with one design choice toggled and
// reports the resulting drive-level FAR/FDR as custom metrics, so
// `go test -bench=Ablation` prints the quality impact alongside the cost.

// ablationEnv builds the shared pieces of an ablation: a fleet, a training
// set and the evaluation closure.
type ablationEnv struct {
	fleet    *simulate.Fleet
	features smart.FeatureSet
	ds       *dataset.Dataset
}

func newAblationEnv(b *testing.B, features smart.FeatureSet, failedShare float64) *ablationEnv {
	b.Helper()
	fleet, err := simulate.New(simulate.Config{Seed: 1, GoodScale: 0.02, FailedScale: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	builder, err := dataset.NewBuilder(dataset.Config{
		Features:            features,
		PeriodStart:         0,
		PeriodEnd:           simulate.HoursPerWeek,
		SamplesPerGoodDrive: 22, // preserve the paper's good:failed sample ratio at this scale
		FailedWindowHours:   168,
		FailedShare:         failedShare,
		Seed:                1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range fleet.DrivesOf("W") {
		trace := fleet.Trace(d.Index)
		if d.Failed {
			builder.AddFailedDrive(d.Index, d.FailHour, trace)
		} else {
			builder.AddGoodDrive(d.Index, trace)
		}
	}
	ds, err := builder.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	return &ablationEnv{fleet: fleet, features: features, ds: ds}
}

// evaluate trains a CT with the given params and reports FAR/FDR.
func (a *ablationEnv) evaluate(b *testing.B, params cart.Params) {
	b.Helper()
	var res eval.Result
	for i := 0; i < b.N; i++ {
		x, y, w := a.ds.XMatrix()
		tree, err := cart.TrainClassifier(x, y, w, params)
		if err != nil {
			b.Fatal(err)
		}
		det := &detect.Voting{Model: tree, Voters: 11}
		var c eval.Counter
		for _, d := range a.fleet.DrivesOf("W") {
			trace := a.fleet.Trace(d.Index)
			if d.Failed {
				if dataset.IsTrainFailedDrive(1, d.Index, 0.7) {
					continue
				}
				s := detect.ExtractSeries(a.features, trace, 0, len(trace))
				c.AddFailed(detect.Scan(det, s, d.FailHour))
				continue
			}
			from, to, ok := dataset.TestStart(trace, 0, simulate.HoursPerWeek, 0.7)
			if !ok {
				continue
			}
			s := detect.ExtractSeries(a.features, trace, from, to)
			c.AddGood(detect.Scan(det, s, -1).Alarmed)
		}
		res = c.Result()
	}
	b.ReportMetric(res.FAR()*100, "FAR%")
	b.ReportMetric(res.FDR()*100, "FDR%")
	b.ReportMetric(res.MeanTIA(), "TIAh")
}

// BenchmarkAblationLossWeight: the paper's 10× false-alarm loss versus
// symmetric loss.
func BenchmarkAblationLossWeight(b *testing.B) {
	b.Run("lossFA=10", func(b *testing.B) {
		a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
		a.evaluate(b, cart.Params{LossFA: 10})
	})
	b.Run("lossFA=1", func(b *testing.B) {
		a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
		a.evaluate(b, cart.Params{LossFA: 1})
	})
}

// BenchmarkAblationClassWeight: boosting the failed class to 20% of the
// training weight versus no boosting.
func BenchmarkAblationClassWeight(b *testing.B) {
	b.Run("failedShare=0.2", func(b *testing.B) {
		a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
		a.evaluate(b, cart.Params{LossFA: 10})
	})
	b.Run("unweighted", func(b *testing.B) {
		a := newAblationEnv(b, smart.CriticalFeatures(), 0)
		a.evaluate(b, cart.Params{LossFA: 10})
	})
}

// BenchmarkAblationPruning: the paper's CP = 0.001 pruning versus an
// unpruned tree.
func BenchmarkAblationPruning(b *testing.B) {
	b.Run("cp=0.001", func(b *testing.B) {
		a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
		a.evaluate(b, cart.Params{LossFA: 10, CP: 0.001})
	})
	b.Run("cp=1e-9", func(b *testing.B) {
		a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
		a.evaluate(b, cart.Params{LossFA: 10, CP: 1e-9})
	})
}

// BenchmarkAblationChangeRates: the 13 critical features versus the same
// set without its three 6-hour change rates.
func BenchmarkAblationChangeRates(b *testing.B) {
	b.Run("withRates", func(b *testing.B) {
		a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
		a.evaluate(b, cart.Params{LossFA: 10})
	})
	b.Run("withoutRates", func(b *testing.B) {
		var noRates smart.FeatureSet
		for _, f := range smart.CriticalFeatures() {
			if f.Kind != smart.ChangeRate {
				noRates = append(noRates, f)
			}
		}
		a := newAblationEnv(b, noRates, 0.2)
		a.evaluate(b, cart.Params{LossFA: 10})
	})
}

// --- Micro-benchmarks -----------------------------------------------------

// BenchmarkTraceGeneration measures synthetic trace generation (the
// substrate cost underlying every experiment).
func BenchmarkTraceGeneration(b *testing.B) {
	fleet, err := simulate.New(simulate.Config{Seed: 1, GoodScale: 0.001, FailedScale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet.Trace(i % len(fleet.Drives()))
	}
}

// BenchmarkTreeTraining measures CT training on a standard-sized set.
func BenchmarkTreeTraining(b *testing.B) {
	a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
	x, y, w := a.ds.XMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cart.TrainClassifier(x, y, w, cart.Params{LossFA: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainClassifierWorkers measures parallel CT training across
// worker-pool sizes on the standard benchmark dataset. The trained tree is
// provably identical at every size, so the series isolates pure speedup.
func BenchmarkTrainClassifierWorkers(b *testing.B) {
	a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
	x, y, w := a.ds.XMatrix()
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cart.TrainClassifier(x, y, w, cart.Params{LossFA: 10, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// binnedBenchSet builds the 100k-sample fleet-scale training matrix for
// the histogram-training benchmark: 13 features (the critical-feature
// count) of full-precision continuous values, so the exact grower sees
// ~100k distinct values per feature — the workload the binned engine is
// built for.
func binnedBenchSet(n, nf int) (x [][]float64, y, w []float64) {
	rng := rand.New(rand.NewSource(7))
	x = make([][]float64, n)
	y = make([]float64, n)
	w = make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = 1
		if row[0]+2*row[1]-row[2]*row[0]+0.5*row[3] > 1.2 {
			y[i] = -1
		}
		if rng.Float64() < 0.05 {
			y[i] = -y[i]
		}
		w[i] = 1
	}
	return x, y, w
}

// BenchmarkTrainClassifierBinned is the headline training benchmark:
// exact split search versus histogram-binned search (MaxBins 255) on the
// 100k-sample synthetic dataset. The workers=1 pair isolates the pure
// algorithmic speedup — the acceptance bar is binned ≥ 3× exact — and the
// workers=all variant shows the two engines compose with the parallel
// grower.
func BenchmarkTrainClassifierBinned(b *testing.B) {
	x, y, w := binnedBenchSet(100_000, 13)
	cases := []struct {
		name   string
		params cart.Params
	}{
		{"exact/workers=1", cart.Params{LossFA: 10, Workers: 1}},
		{"maxbins=255/workers=1", cart.Params{LossFA: 10, Workers: 1, MaxBins: 255}},
		{"exact/workers=all", cart.Params{LossFA: 10}},
		{"maxbins=255/workers=all", cart.Params{LossFA: 10, MaxBins: 255}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cart.TrainClassifier(x, y, w, tc.params); err != nil {
					b.Fatal(err)
				}
			}
			reportPerSample(b, len(x))
		})
	}
}

// BenchmarkForestTrainingWorkers measures random-forest training across
// worker counts (tree-level parallelism; each tree grows serially).
func BenchmarkForestTrainingWorkers(b *testing.B) {
	a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
	x, y, w := a.ds.XMatrix()
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := forest.TrainClassifier(x, y, w, forest.Config{
					Trees: 16, Seed: 1, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreePredict measures single-sample prediction latency.
func BenchmarkTreePredict(b *testing.B) {
	a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
	x, y, w := a.ds.XMatrix()
	tree, err := cart.TrainClassifier(x, y, w, cart.Params{LossFA: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(x[i%len(x)])
	}
}

// --- Compiled-inference benchmarks ---------------------------------------
//
// These record the single-thread cost of each per-row scoring way
// (pointer, compiled, binned) and the fleet-scan throughput of the
// detectors built on them. cmd/benchjson turns their output into
// BENCH_inference.json.

// benchInferenceTree trains the standard CT and returns it with the
// benchmark feature matrix.
func benchInferenceTree(b *testing.B) (*cart.Tree, [][]float64) {
	b.Helper()
	a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
	x, y, w := a.ds.XMatrix()
	tree, err := cart.TrainClassifier(x, y, w, cart.Params{LossFA: 10})
	if err != nil {
		b.Fatal(err)
	}
	return tree, x
}

// reportPerSample adds a ns/sample metric to a whole-matrix benchmark.
func reportPerSample(b *testing.B, samples int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(samples), "ns/sample")
}

// BenchmarkPredictCompiledTree scores the full benchmark matrix per
// iteration, one row at a time, through the pointer tree, the compiled
// tree and the binned tree.
func BenchmarkPredictCompiledTree(b *testing.B) {
	tree, x := benchInferenceTree(b)
	c := tree.Compile()
	b.Run("pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range x {
				tree.Predict(row)
			}
		}
		reportPerSample(b, len(x))
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range x {
				c.Predict(row)
			}
		}
		reportPerSample(b, len(x))
	})
	bt, codes := benchBinnedTree(b, c, x)
	b.Run("binned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range codes {
				bt.Predict(row)
			}
		}
		reportPerSample(b, len(x))
	})
}

// benchBinnedTree compiles the benchmark tree to binned-code form over a
// 255-bin quantization of the benchmark matrix and quantizes the matrix
// once, so binned benchmarks measure scoring, not quantization.
func benchBinnedTree(b *testing.B, c *cart.CompiledTree, x [][]float64) (*cart.BinnedTree, [][]uint8) {
	b.Helper()
	bm, err := dataset.BinMatrix(x, dataset.MaxBinsLimit)
	if err != nil {
		b.Fatal(err)
	}
	bt, err := c.CompileBinned(bm)
	if err != nil {
		b.Fatal(err)
	}
	codes, err := bm.Quantize(x)
	if err != nil {
		b.Fatal(err)
	}
	return bt, codes
}

// BenchmarkPredictCompiledForest scores the benchmark matrix through a
// production-sized ensemble (48 trees, the forest extension of §VII),
// one row at a time: its cost per sample is about 48 single-tree walks.
// Fleets of quantized rows go through the tiled sweep instead
// (internal/sweep).
func BenchmarkPredictCompiledForest(b *testing.B) {
	a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
	x, y, w := a.ds.XMatrix()
	f, err := forest.TrainClassifier(x, y, w, forest.Config{Trees: 48, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range x {
				f.Predict(row)
			}
		}
		reportPerSample(b, len(x))
	})
}

// benchFleetSeries extracts every benchmark drive's evaluation series once
// so fleet-scan benchmarks measure scanning, not trace generation.
func benchFleetSeries(b *testing.B, a *ablationEnv) (series []detect.Series, failHours []int, samples int) {
	b.Helper()
	for _, d := range a.fleet.DrivesOf("W") {
		trace := a.fleet.Trace(d.Index)
		if d.Failed {
			if dataset.IsTrainFailedDrive(1, d.Index, 0.7) {
				continue
			}
			s := detect.ExtractSeries(a.features, trace, 0, len(trace))
			series = append(series, s)
			failHours = append(failHours, d.FailHour)
			samples += len(s.X)
			continue
		}
		from, to, ok := dataset.TestStart(trace, 0, simulate.HoursPerWeek, 0.7)
		if !ok {
			continue
		}
		s := detect.ExtractSeries(a.features, trace, from, to)
		series = append(series, s)
		failHours = append(failHours, -1)
		samples += len(s.X)
	}
	return series, failHours, samples
}

// BenchmarkFleetScan scans the benchmark fleet's series with the 11-voter
// detector on the pointer tree at several worker counts. Msamples/s is
// the fleet-scan throughput.
func BenchmarkFleetScan(b *testing.B) {
	a := newAblationEnv(b, smart.CriticalFeatures(), 0.2)
	x, y, w := a.ds.XMatrix()
	tree, err := cart.TrainClassifier(x, y, w, cart.Params{LossFA: 10})
	if err != nil {
		b.Fatal(err)
	}
	series, failHours, samples := benchFleetSeries(b, a)
	throughput := func(b *testing.B) {
		b.ReportMetric(float64(samples)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
	}
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("pointer/workers=%d", workers), func(b *testing.B) {
			det := &detect.Voting{Model: tree, Voters: 11}
			for i := 0; i < b.N; i++ {
				detect.ScanBatch(det, series, failHours, workers)
			}
			throughput(b)
		})
	}
}

// BenchmarkMarkovSolve measures the banded time-to-absorption solve at the
// paper's largest Fig. 12 system size (2,500 drives, 7,500 states).
func BenchmarkMarkovSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := reliability.RAID6PredictionMTTDL(2500, reliability.SATADrive(),
			reliability.Prediction{FDR: 0.9549, TIAHours: 355})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionForest regenerates the random-forest extension
// experiment (the paper's first future-work item).
func BenchmarkExtensionForest(b *testing.B) { benchExperiment(b, "forest") }

// BenchmarkExtensionBoost regenerates the AdaBoost extension experiment
// (testing the paper's §V cost/benefit remark).
func BenchmarkExtensionBoost(b *testing.B) { benchExperiment(b, "boost") }

// BenchmarkExtensionStorageSim regenerates the event-driven storage
// simulation that cross-validates the §VI Markov model.
func BenchmarkExtensionStorageSim(b *testing.B) { benchExperiment(b, "storagesim") }

// BenchmarkExtensionBaselines regenerates the §II prior-work comparison.
func BenchmarkExtensionBaselines(b *testing.B) { benchExperiment(b, "baselines") }
