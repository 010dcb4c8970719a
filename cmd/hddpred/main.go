// Command hddpred trains and applies hard-drive failure prediction models
// on CSV SMART traces (as produced by cmd/gendata or converted from a real
// SMART collector).
//
// Subcommands:
//
//	hddpred train    -data traces.csv -model ct|rt|ann -o model.json
//	hddpred evaluate -data traces.csv -m model.json [-voters 11]
//	hddpred predict  -data traces.csv -m model.json [-voters 11]
//	hddpred inspect  -m model.json
//	hddpred serve    -m model.json [-addr :9130] [-shards 8] [-snapshot state.snap]
//
// Training follows the paper's setup: a few random samples per good drive
// from the earlier 70% of the observation window, failed-window samples of
// a 70% drive split, failed class boosted to 20%, 10× false-alarm loss for
// the CT model.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"hddcart/internal/ann"
	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/featsel"
	"hddcart/internal/health"
	"hddcart/internal/smart"
	"hddcart/internal/sweep"
	"hddcart/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hddpred:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: hddpred <train|evaluate|predict|inspect|featsel|serve> [flags]")
	}
	switch args[0] {
	case "train":
		return cmdTrain(args[1:])
	case "evaluate":
		return cmdEvaluate(args[1:])
	case "predict":
		return cmdPredict(args[1:])
	case "inspect":
		return cmdInspect(args[1:])
	case "featsel":
		return cmdFeatsel(args[1:])
	case "serve":
		return cmdServe(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// modelFile is the on-disk model envelope.
type modelFile struct {
	Type    string          `json:"type"` // "ct", "rt" or "ann"
	Tree    *cart.Tree      `json:"tree,omitempty"`
	Network json.RawMessage `json:"network,omitempty"`
}

// loadModel reads a model envelope and returns a predictor.
func loadModel(path string) (detect.Predictor, *modelFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, nil, fmt.Errorf("decode model: %w", err)
	}
	switch mf.Type {
	case "ct", "rt":
		if mf.Tree == nil {
			return nil, nil, errors.New("model file missing tree")
		}
		return mf.Tree, &mf, nil
	case "ann":
		net, err := ann.Unmarshal(mf.Network)
		if err != nil {
			return nil, nil, err
		}
		return net, &mf, nil
	default:
		return nil, nil, fmt.Errorf("unknown model type %q", mf.Type)
	}
}

// eachDrive passes every drive of a CSV trace file to fn, with the
// drive's index in the file. format selects the native trace layout
// ("hddcart") or Backblaze drive-stats snapshots ("backblaze"). Native
// traces stream drive by drive, so a caller that keeps only what it
// extracts holds one drive's records at a time; Backblaze rows must be
// grouped and sorted first, so that format is read whole. fn borrows
// d.Records only until it returns: the next native drive reuses their
// storage (trace.Reader.Next), so fn copies whatever it keeps.
func eachDrive(path, format string, fn func(i int, d trace.DriveTrace)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "", "hddcart":
		r, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		defer r.Close()
		for i := 0; ; i++ {
			d, err := r.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			fn(i, d)
		}
	case "backblaze":
		drives, stats, err := trace.ReadBackblazeStats(f, trace.BackblazeOptions{})
		if err != nil {
			return err
		}
		// Real snapshot dumps are routinely dirty; make every dropped or
		// repaired row visible instead of silently training on less data.
		if stats.Dropped > 0 || stats.Repaired > 0 {
			fmt.Fprintf(os.Stderr, "hddpred: %s: %s\n", path, stats.String())
			for i, re := range stats.Errors {
				if i == 5 {
					fmt.Fprintf(os.Stderr, "hddpred:   ... %d more\n", len(stats.Errors)-i+stats.Truncated)
					break
				}
				fmt.Fprintf(os.Stderr, "hddpred:   %s\n", re.Error())
			}
		}
		for i, d := range drives {
			fn(i, d)
		}
		return nil
	default:
		return fmt.Errorf("unknown data format %q (want hddcart or backblaze)", format)
	}
}

// dataFlags registers the shared -data/-format flags.
func dataFlags(fs *flag.FlagSet) (data, format *string) {
	data = fs.String("data", "", "input CSV traces (required)")
	format = fs.String("format", "hddcart", "input format: hddcart or backblaze")
	return data, format
}

// cmdFeatsel runs the §IV-B statistical feature selection over a CSV
// dataset and prints the ranking.
func cmdFeatsel(args []string) error {
	fs := flag.NewFlagSet("featsel", flag.ContinueOnError)
	data, format := dataFlags(fs)
	window := fs.Int("window", 168, "failed window (hours) defining failed samples")
	interval := fs.Int("rate-interval", 6, "change-rate interval (hours) to evaluate")
	top := fs.Int("top", 13, "print a suggested top-k selection")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return errors.New("featsel: -data is required")
	}
	pool := featsel.CandidateFeatures(*interval)
	fsData := featsel.Data{Features: pool}
	err := eachDrive(*data, *format, func(_ int, d trace.DriveTrace) {
		if len(d.Records) == 0 {
			return
		}
		s := detect.ExtractSeries(pool, d.Records, 0, len(d.Records))
		if d.Meta.Failed {
			var windowed [][]float64
			for i, h := range s.Hours {
				if d.Meta.FailHour-h <= *window {
					windowed = append(windowed, s.X[i])
				}
			}
			fsData.Failed = append(fsData.Failed, windowed...)
			fsData.FailedSeries = append(fsData.FailedSeries, windowed)
		} else {
			// Subsample good rows to keep the test balanced.
			for i := 0; i < len(s.X); i += 8 {
				fsData.Good = append(fsData.Good, s.X[i])
			}
		}
	})
	if err != nil {
		return err
	}
	scores, err := featsel.Evaluate(fsData)
	if err != nil {
		return err
	}
	for _, s := range scores {
		fmt.Println(s.String())
	}
	fmt.Println("\nsuggested selection:")
	for _, f := range featsel.SelectTop(scores, *top) {
		fmt.Println("  " + f.String())
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	data, format := dataFlags(fs)
	kind := fs.String("model", "ct", "model type: ct, rt or ann")
	out := fs.String("o", "model.json", "output model file")
	periodStart := fs.Int("period-start", 0, "good-sample window start hour")
	periodEnd := fs.Int("period-end", 168, "good-sample window end hour")
	window := fs.Int("window", 168, "failed time window (hours)")
	seed := fs.Int64("seed", 1, "sampling seed")
	epochs := fs.Int("ann-epochs", 400, "ANN epochs")
	workers := fs.Int("workers", 0, "tree-training worker-pool size (0 = all cores); the trained model is identical for any value")
	maxBins := fs.Int("max-bins", 0, "histogram-binned tree training with this bin budget (0 = exact split search, max 255)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return errors.New("train: -data is required")
	}
	features := smart.CriticalFeatures()
	failedWindow := *window
	if *kind == "ann" {
		failedWindow = 12 // the paper's ANN window
	}
	cfg := dataset.Config{
		Features:          features,
		PeriodStart:       *periodStart,
		PeriodEnd:         *periodEnd,
		FailedWindowHours: failedWindow,
		FailedShare:       0.2,
		Seed:              *seed,
	}
	if *kind == "rt" {
		cfg.FailedSamplesPerDrive = 12
	}
	b, err := dataset.NewBuilder(cfg)
	if err != nil {
		return err
	}
	err = eachDrive(*data, *format, func(i int, d trace.DriveTrace) {
		if d.Meta.Failed {
			b.AddFailedDrive(i, d.Meta.FailHour, d.Records)
		} else {
			b.AddGoodDrive(i, d.Records)
		}
	})
	if err != nil {
		return err
	}
	ds, err := b.Finalize()
	if err != nil {
		return err
	}
	good, failed := ds.Counts()
	fmt.Fprintf(os.Stderr, "train: %d good + %d failed samples\n", good, failed)
	if good == 0 || failed == 0 {
		return errors.New("train: need both good and failed training samples")
	}

	var mf modelFile
	switch *kind {
	case "ct":
		x, y, w := ds.XMatrix()
		tree, err := cart.TrainClassifier(x, y, w, cart.Params{LossFA: 10, Workers: *workers, MaxBins: *maxBins})
		if err != nil {
			return err
		}
		tree.FeatureNames = features.Names()
		mf = modelFile{Type: "ct", Tree: tree}
	case "rt":
		// Health-degree targets with the global window (personalized
		// windows need a first-pass CT model; see the library API).
		if err := ds.SetHealthTargets(nil, health.DefaultWindowHours); err != nil {
			return err
		}
		x, y, w := ds.XMatrix()
		tree, err := cart.TrainRegressor(x, y, w, cart.Params{Workers: *workers, MaxBins: *maxBins})
		if err != nil {
			return err
		}
		tree.FeatureNames = features.Names()
		mf = modelFile{Type: "rt", Tree: tree}
	case "ann":
		x, y, w := ds.XMatrix()
		net, err := ann.Train(x, y, w, ann.Config{Hidden: 13, Epochs: *epochs, Patience: 10, Seed: *seed})
		if err != nil {
			return err
		}
		raw, err := net.Marshal()
		if err != nil {
			return err
		}
		mf = modelFile{Type: "ann", Network: raw}
	default:
		return fmt.Errorf("train: unknown model type %q", *kind)
	}
	enc, err := json.Marshal(mf)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "train: wrote %s model to %s\n", mf.Type, *out)
	return nil
}

// detectorFor builds the right detector for a model type, rejecting a
// window below 1 and an rt threshold outside [-1, 1] as serve does.
func detectorFor(mf *modelFile, model detect.Predictor, voters int, threshold float64) (detect.Detector, error) {
	if mf.Type == "rt" {
		return detect.NewMeanThreshold(model, voters, threshold)
	}
	return detect.NewVoting(model, voters, 0)
}

// profileFlags registers the shared -cpuprofile/-memprofile flags on a
// subcommand's flag set. Pair with startProfiles after parsing.
func profileFlags(fs *flag.FlagSet) (cpuprofile, memprofile *string) {
	cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return cpuprofile, memprofile
}

// startProfiles begins CPU profiling when requested and returns the stop
// hook that finishes the CPU profile and writes the heap profile. The
// hook is safe to defer unconditionally — with both paths empty it does
// nothing. Profiles taken around a sweep carry the sweep_phase and
// kernel pprof labels, so `go tool pprof -tagfocus sweep_phase:partition`
// isolates the scoring phase under the dispatch tier that actually ran.
func startProfiles(cmd, cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("%s: -cpuprofile: %w", cmd, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: -cpuprofile: %w", cmd, err)
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("%s: -cpuprofile: %w", cmd, err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("%s: -memprofile: %w", cmd, err)
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("%s: -memprofile: %w", cmd, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("%s: -memprofile: %w", cmd, err)
			}
		}
		return nil
	}, nil
}

// scanWorkers validates a -workers flag for the scan paths (mirroring the
// training-side validation in cart.Params) and resolves 0 to all cores.
func scanWorkers(cmd string, workers int) (int, error) {
	if workers < 0 {
		return 0, fmt.Errorf("%s: negative Workers %d", cmd, workers)
	}
	if workers == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return workers, nil
}

func cmdEvaluate(args []string) (err error) {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	data, format := dataFlags(fs)
	modelPath := fs.String("m", "model.json", "model file")
	voters := fs.Int("voters", 11, "voting/averaging window N")
	threshold := fs.Float64("threshold", -0.3, "health-degree alarm threshold (rt models)")
	periodStart := fs.Int("period-start", 0, "good test window start hour")
	periodEnd := fs.Int("period-end", 168, "good test window end hour")
	seed := fs.Int64("seed", 1, "failed-drive split seed (must match training)")
	workers := fs.Int("workers", 0, "scan worker-pool size (0 = all cores); results are identical for any value. Trace decode and, with -sweep, binning and tile packing run on GOMAXPROCS goroutines whatever this is")
	useSweep := fs.Bool("sweep", false, "scan through the sharded fleet-sweep engine (tree models): quantize once, score feature-major tiles")
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return errors.New("evaluate: -data is required")
	}
	stopProf, err := startProfiles("evaluate", *cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()
	w, err := scanWorkers("evaluate", *workers)
	if err != nil {
		return err
	}
	model, mf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	det, err := detectorFor(mf, model, *voters, *threshold)
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	features := smart.CriticalFeatures()
	// Only the extracted series outlive each drive's records.
	var series []detect.Series
	var failHours []int
	var isFailed []bool
	err = eachDrive(*data, *format, func(i int, d trace.DriveTrace) {
		if d.Meta.Failed {
			if dataset.IsTrainFailedDrive(*seed, i, 0.7) {
				return
			}
			series = append(series, detect.ExtractSeries(features, d.Records, 0, len(d.Records)))
			failHours = append(failHours, d.Meta.FailHour)
			isFailed = append(isFailed, true)
			return
		}
		from, to, ok := dataset.TestStart(d.Records, *periodStart, *periodEnd, 0.7)
		if !ok {
			return
		}
		series = append(series, detect.ExtractSeries(features, d.Records, from, to))
		failHours = append(failHours, -1)
		isFailed = append(isFailed, false)
	})
	if err != nil {
		return err
	}
	// Drives scan on w goroutines; each outcome lands at its drive's own
	// index, so the counts below are identical for every worker count.
	var outcomes []detect.Outcome
	if *useSweep {
		outcomes, err = sweepEvaluate(mf, series, failHours, *voters, *threshold, w)
		if err != nil {
			return err
		}
	} else {
		outcomes = detect.ScanBatch(det, series, failHours, w)
	}
	var c eval.Counter
	for i, out := range outcomes {
		if isFailed[i] {
			c.AddFailed(out)
		} else {
			c.AddGood(out.Alarmed)
		}
	}
	fmt.Println(c.Result().String())
	return nil
}

// sweepEvaluate scans the evaluation fleet through the sharded sweep
// engine: the series' own rows are binned (255 bins, enough for every
// split threshold the tree carries), the tree is remapped onto that code
// space, and the whole fleet sweeps through the feature-major tiled
// kernels. Scores are quantized where ScanBatch's are float, so
// straddled thresholds may verdict individual samples differently; the
// -sweep flag trades that for fleet-scale throughput. workers sizes only
// the sweep's scan: like trace decode, binning (dataset.BinMatrix) and
// tile packing (sweep.Prepare) run on GOMAXPROCS goroutines whatever it
// is, and their output is the same for any GOMAXPROCS.
func sweepEvaluate(mf *modelFile, series []detect.Series, failHours []int,
	voters int, threshold float64, workers int) ([]detect.Outcome, error) {
	if mf.Type != "ct" && mf.Type != "rt" {
		return nil, fmt.Errorf("evaluate: -sweep needs a tree model, not %q", mf.Type)
	}
	var rows [][]float64
	for i := range series {
		rows = append(rows, series[i].X...)
	}
	if len(rows) == 0 {
		return nil, errors.New("evaluate: -sweep found no samples to scan")
	}
	bm, err := dataset.BinMatrix(rows, dataset.MaxBinsLimit)
	if err != nil {
		return nil, err
	}
	bt, err := mf.Tree.Compile().CompileBinned(bm)
	if err != nil {
		return nil, err
	}
	cfg := sweep.Config{Voters: voters, Workers: workers}
	if mf.Type == "rt" {
		cfg.Mean = true
		cfg.Threshold = threshold
	}
	fleet, err := sweep.Prepare(bm, series, 0)
	if err != nil {
		return nil, err
	}
	res, err := sweep.Run(bt, fleet, failHours, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "evaluate: sweep scanned %d drives (%d samples, %d shards): %d alarms, %d NaN-excluded, %d steals\n",
		res.Total.Drives, res.Total.Samples, len(res.Shards), res.Total.Alarms, res.Total.NaNExcluded, res.Total.Steals)
	return res.Outcomes, nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	data, format := dataFlags(fs)
	modelPath := fs.String("m", "model.json", "model file")
	voters := fs.Int("voters", 11, "voting/averaging window N")
	threshold := fs.Float64("threshold", -0.3, "health-degree alarm threshold (rt models)")
	workers := fs.Int("workers", 0, "scan worker-pool size (0 = all cores); results are identical for any value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return errors.New("predict: -data is required")
	}
	w, err := scanWorkers("predict", *workers)
	if err != nil {
		return err
	}
	model, mf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	det, err := detectorFor(mf, model, *voters, *threshold)
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	features := smart.CriticalFeatures()
	var serials []string
	var series []detect.Series
	err = eachDrive(*data, *format, func(_ int, d trace.DriveTrace) {
		serials = append(serials, d.Meta.Serial)
		series = append(series, detect.ExtractSeries(features, d.Records, 0, len(d.Records)))
	})
	if err != nil {
		return err
	}
	// Scans fan out across w goroutines; outcomes land at each drive's own
	// index, so the report below is printed in input order regardless of
	// the worker count.
	outs := detect.ScanBatch(det, series, nil, w)
	warnings := 0
	for i, serial := range serials {
		if outs[i].Alarmed {
			warnings++
			fmt.Printf("%s\tWARNING at hour %d\n", serial, outs[i].AlarmHour)
		} else {
			fmt.Printf("%s\thealthy\n", serial)
		}
	}
	fmt.Fprintf(os.Stderr, "predict: %d warnings across %d drives\n", warnings, len(serials))
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	modelPath := fs.String("m", "model.json", "model file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, mf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	switch mf.Type {
	case "ct", "rt":
		tree := mf.Tree
		fmt.Printf("%s tree: %d nodes, %d leaves, depth %d\n",
			mf.Type, tree.NumNodes(), tree.NumLeaves(), tree.Depth())
		fmt.Println("\nfailure rules:")
		for _, rule := range tree.Rules(true) {
			fmt.Println("  " + rule.String(tree.FeatureNames))
		}
		fmt.Println("\nvariable importance:")
		imp := tree.VariableImportance()
		for i, v := range imp {
			if v > 0 {
				name := fmt.Sprintf("x[%d]", i)
				if i < len(tree.FeatureNames) {
					name = tree.FeatureNames[i]
				}
				fmt.Printf("  %-44s %.4f\n", name, v)
			}
		}
	case "ann":
		net, err := ann.Unmarshal(mf.Network)
		if err != nil {
			return err
		}
		fmt.Printf("BP ANN: %d inputs, %d hidden units (a black box — the paper's point)\n",
			net.NumInputs, net.Hidden)
	}
	return nil
}
