// Package experiments reproduces every table and figure of the paper's
// evaluation (§V, §VI) on the synthetic fleet. Each runner returns a
// Report whose lines mirror the paper's rows/series; cmd/experiments
// prints them and bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"hddcart/internal/ann"
	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/par"
	"hddcart/internal/plot"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// Config scales and seeds an experiment environment.
type Config struct {
	// Seed drives the whole synthetic fleet and all sampling.
	Seed int64
	// GoodScale/FailedScale scale the family population counts
	// (1 = the paper's 25,792-drive dataset). Zero means 1.
	GoodScale, FailedScale float64
	// Workers bounds trace-generation, model-training and evaluation
	// parallelism; 0 = GOMAXPROCS. Model training is deterministic for
	// any worker count, so changing Workers never changes experiment
	// results.
	Workers int
	// ANNEpochs caps BP ANN training epochs (0 = the paper's 400; the
	// default experiment configs pass a smaller budget with early
	// stopping to keep run times reasonable).
	ANNEpochs int
	// MaxBins, when positive, trains every tree model (CT, RT, forest,
	// AdaBoost) with the histogram-binned grower at this bin budget
	// (≤ 255); 0 keeps the exact split search. See cart.Params.MaxBins.
	MaxBins int
}

func (c Config) withDefaults() Config {
	if exactZero(c.GoodScale) {
		c.GoodScale = 1
	}
	if exactZero(c.FailedScale) {
		c.FailedScale = 1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ANNEpochs == 0 {
		c.ANNEpochs = 400
	}
	return c
}

// Env is a reproducible experiment environment: the fleet plus shared
// settings and a memo cache so experiments that share trained models (e.g.
// Figs. 2–4) do not retrain them.
type Env struct {
	cfg   Config
	fleet *simulate.Fleet

	mu   sync.Mutex
	memo map[string]any

	// chartDir, when non-empty, receives SVG renderings of figure
	// reports (set by RunWithCharts).
	chartDir string
}

// memoize returns the cached value for key, computing it via fn on a miss.
// The lock is NOT held while fn runs, so memoized computations may call
// memoize themselves (experiments run sequentially, so the duplicate-work
// race is theoretical).
func (e *Env) memoize(key string, fn func() (any, error)) (any, error) {
	e.mu.Lock()
	if v, ok := e.memo[key]; ok {
		e.mu.Unlock()
		return v, nil
	}
	e.mu.Unlock()

	v, err := fn()
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if e.memo == nil {
		e.memo = make(map[string]any)
	}
	e.memo[key] = v
	e.mu.Unlock()
	return v, nil
}

// NewEnv builds the synthetic fleet.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("experiments: negative Workers %d", cfg.Workers)
	}
	if cfg.MaxBins < 0 || cfg.MaxBins > dataset.MaxBinsLimit {
		return nil, fmt.Errorf("experiments: MaxBins %d outside [0,%d]", cfg.MaxBins, dataset.MaxBinsLimit)
	}
	cfg = cfg.withDefaults()
	fleet, err := simulate.New(simulate.Config{
		Seed:        cfg.Seed,
		GoodScale:   cfg.GoodScale,
		FailedScale: cfg.FailedScale,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: build fleet: %w", err)
	}
	return &Env{cfg: cfg, fleet: fleet}, nil
}

// Fleet exposes the underlying synthetic fleet.
func (e *Env) Fleet() *simulate.Fleet { return e.fleet }

// Config returns the environment's resolved configuration.
func (e *Env) Config() Config { return e.cfg }

// Report is one experiment's printable result.
type Report struct {
	// ID is the experiment identifier ("table3", "figure2", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Lines are the formatted output rows.
	Lines []string
	// Charts are optional graphical renderings of the figure
	// (cmd/experiments -svg-dir writes them to disk).
	Charts []plot.Chart
}

// addROCChart appends a FAR/FDR chart built from labelled curves.
func (r *Report) addROCChart(title string, curves map[string]eval.Curve) {
	chart := plot.Chart{
		Title:  title,
		XLabel: "false alarm rate (%)",
		YLabel: "failure detection rate (%)",
	}
	for _, name := range sortedKeys(curves) {
		c := append(eval.Curve(nil), curves[name]...)
		c.SortByFAR()
		s := plot.Series{Name: name}
		for _, p := range c {
			s.X = append(s.X, p.Result.FAR()*100)
			s.Y = append(s.Y, p.Result.FDR()*100)
		}
		chart.Series = append(chart.Series, s)
	}
	r.Charts = append(r.Charts, chart)
}

// sortedKeys returns map keys in stable order, so callers can iterate
// string-keyed maps deterministically (hddlint's maporder analyzer
// rejects order-sensitive map ranges on these paths).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// addf appends a formatted line.
func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		out += l + "\n"
	}
	return out
}

// forEachTrace generates the traces of the given drives on a worker pool
// and delivers them, in drive order, to fn on the calling goroutine (so fn
// may feed order-sensitive consumers like dataset.Builder).
func (e *Env) forEachTrace(drives []simulate.Drive, fn func(d simulate.Drive, trace []smart.Record)) {
	const batch = 64
	traces := make([][]smart.Record, batch)
	for start := 0; start < len(drives); start += batch {
		n := min(batch, len(drives)-start)
		par.For(n, e.cfg.Workers, func(i int) {
			traces[i] = e.fleet.Trace(drives[start+i].Index)
		})
		for i := 0; i < n; i++ {
			fn(drives[start+i], traces[i])
			traces[i] = nil
		}
	}
}

// testDrives keeps the drives the paper's protocol tests: every good drive
// and the failed drives outside the training split (per splitSeed).
func testDrives(drives []simulate.Drive, splitSeed int64) []simulate.Drive {
	out := make([]simulate.Drive, 0, len(drives))
	for _, d := range drives {
		if !d.Failed || !dataset.IsTrainFailedDrive(splitSeed, d.Index, 0.7) {
			out = append(out, d)
		}
	}
	return out
}

// testSeries cuts a tested drive's series out of its trace and returns the
// failure hour to scan it against: a failed drive's whole recorded trace
// against its FailHour, a good drive's samples after the trainFrac cut of
// [periodStart, periodEnd) against -1. ok is false when a good drive has
// no samples after the cut.
func testSeries(features smart.FeatureSet, d simulate.Drive, trace []smart.Record,
	periodStart, periodEnd int, trainFrac float64) (s detect.Series, failHour int, ok bool) {
	if d.Failed {
		return detect.ExtractSeries(features, trace, 0, len(trace)), d.FailHour, true
	}
	from, to, ok := dataset.TestStart(trace, periodStart, periodEnd, trainFrac)
	if !ok {
		return detect.Series{}, -1, false
	}
	return detect.ExtractSeries(features, trace, from, to), -1, true
}

// testSet is one family's test split under the paper's protocol (§V-A),
// in drive order: the failed drives outside the training split, each over
// its whole recorded trace, and every good drive's samples after the 0.7
// cut of week one. A good drive with no sample after the cut is left out.
// Only the detector changes between runs, so a set is built once and
// every run scans it; filtered sets share their parent's series.
type testSet struct {
	drives    []simulate.Drive
	failHours []int // each failed drive's FailHour, -1 for a good one
	series    []detect.Series
}

// newTestSet cuts a family's test series for features, simulating each
// tested drive's trace once on the worker pool.
func (e *Env) newTestSet(family string, features smart.FeatureSet) *testSet {
	drives := testDrives(e.fleet.DrivesOf(family), e.cfg.Seed)
	series := make([]detect.Series, len(drives))
	failHours := make([]int, len(drives))
	ok := make([]bool, len(drives))
	par.For(len(drives), e.cfg.Workers, func(i int) {
		d := drives[i]
		series[i], failHours[i], ok[i] = testSeries(features, d, e.fleet.Trace(d.Index),
			0, simulate.HoursPerWeek, 0.7)
	})
	ts := &testSet{}
	for i, d := range drives {
		if ok[i] {
			ts.drives = append(ts.drives, d)
			ts.failHours = append(ts.failHours, failHours[i])
			ts.series = append(ts.series, series[i])
		}
	}
	return ts
}

// criticalSet returns (memoized) a family's test set over the 13 critical
// features, the set every experiment but Table III scans.
func (e *Env) criticalSet(family string) *testSet {
	v, _ := e.memoize("criticalSet/"+family, func() (any, error) { // cannot fail
		return e.newTestSet(family, smart.CriticalFeatures()), nil
	})
	return v.(*testSet)
}

// filter returns the drives of ts for which keep holds, in drive order.
func (ts *testSet) filter(keep func(d simulate.Drive) bool) *testSet {
	out := &testSet{}
	for i, d := range ts.drives {
		if keep(d) {
			out.drives = append(out.drives, d)
			out.failHours = append(out.failHours, ts.failHours[i])
			out.series = append(out.series, ts.series[i])
		}
	}
	return out
}

// add folds drive i's outcome into c: a failed drive's detection and
// time in advance, or a good drive's false alarm.
func (ts *testSet) add(c *eval.Counter, i int, out detect.Outcome) {
	if ts.drives[i].Failed {
		c.AddFailed(out)
	} else {
		c.AddGood(out.Alarmed)
	}
}

// scan runs det over every drive of ts. Drives are scanned in parallel,
// but the outcomes fold into the result serially in drive order, so the
// result (including the order of its time-in-advance samples) is
// identical for every worker count.
func (e *Env) scan(ts *testSet, det detect.Detector) eval.Result {
	var c eval.Counter
	for i, out := range detect.ScanBatch(det, ts.series, ts.failHours, e.cfg.Workers) {
		ts.add(&c, i, out)
	}
	return c.Result()
}

// trainingSet assembles the paper's standard training set for one family:
// 3 random samples per good drive from the earlier trainFrac of the period,
// failed-window samples of training-split failed drives, failed share
// boosted to 20%.
func (e *Env) trainingSet(family string, features smart.FeatureSet,
	periodStart, periodEnd, windowHours int) (*dataset.Dataset, error) {
	return e.trainingSetDrives(e.fleet.DrivesOf(family), features, periodStart, periodEnd, windowHours)
}

// trainingSetDrives is trainingSet over an explicit drive list (used by the
// small-dataset experiment, Table V).
func (e *Env) trainingSetDrives(drives []simulate.Drive, features smart.FeatureSet,
	periodStart, periodEnd, windowHours int) (*dataset.Dataset, error) {
	b, err := dataset.NewBuilder(dataset.Config{
		Features:            features,
		PeriodStart:         periodStart,
		PeriodEnd:           periodEnd,
		SamplesPerGoodDrive: e.goodSamplesPerDrive(),
		FailedWindowHours:   windowHours,
		FailedShare:         0.2,
		Seed:                e.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	e.forEachTrace(drives, func(d simulate.Drive, trace []smart.Record) {
		if d.Failed {
			b.AddFailedDrive(d.Index, d.FailHour, trace)
		} else {
			b.AddGoodDrive(d.Index, trace)
		}
	})
	return b.Finalize()
}

// goodSamplesPerDrive keeps the training set's good:failed sample ratio at
// the paper's (3 samples × 22,790 good drives against ~51k failed-window
// samples) even when the good population is scaled down more than the
// failed one. Without this, a scaled-down fleet undersamples the healthy
// feature space and the tree carves spurious failed pockets — an artifact
// of scaling, not of the method.
func (e *Env) goodSamplesPerDrive() int {
	k := int(3*e.cfg.FailedScale/e.cfg.GoodScale + 0.5)
	if k < 3 {
		k = 3
	}
	if k > 40 {
		k = 40
	}
	return k
}

// ctParams are the paper's CT hyper-parameters (§V-A2): Minsplit 20,
// Minbucket 7, CP 0.001, false-alarm loss 10× — plus the environment's
// worker budget for the parallel training engine (which provably does not
// alter the grown tree) and its histogram-bin budget.
func (e *Env) ctParams() cart.Params {
	return cart.Params{
		MinSplit: 20, MinBucket: 7, CP: 0.001, LossFA: 10,
		Workers: e.cfg.Workers, MaxBins: e.cfg.MaxBins,
	}
}

// trainCT trains the paper's CT model on a finalized dataset.
func (e *Env) trainCT(ds *dataset.Dataset) (*cart.Tree, error) {
	x, y, w := ds.XMatrix()
	tree, err := cart.TrainClassifier(x, y, w, e.ctParams())
	if err != nil {
		return nil, err
	}
	tree.FeatureNames = ds.Features.Names()
	return tree, nil
}

// trainANN trains the BP ANN baseline with the paper's §V-A2 layer sizes
// (hidden 30 for 19 features, 13 for 13, 20 for 12) and learning rate 0.1.
func (e *Env) trainANN(ds *dataset.Dataset) (*ann.Network, error) {
	hidden := len(ds.Features)
	switch len(ds.Features) {
	case 19:
		hidden = 30
	case 13:
		hidden = 13
	case 12:
		hidden = 20
	}
	x, y, w := ds.XMatrix()
	return ann.Train(x, y, w, ann.Config{
		Hidden:       hidden,
		LearningRate: 0.1,
		Epochs:       e.cfg.ANNEpochs,
		Patience:     10,
		Seed:         e.cfg.Seed + 1,
	})
}
