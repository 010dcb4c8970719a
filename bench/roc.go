package main

import (
	"encoding/json"
	"time"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/forest"
	"hddcart/internal/smart"
	"hddcart/internal/sweep"
)

// roc-forest sizes at scale 1: rocRows hourly rows per drive give 24
// scored samples after the 6 h change-rate lookback.
const (
	rocDrives, rocRows, rocFirstHour = 8000, 30, 130
	rocTrees                         = 48
	// rocSampleEvery picks the drives whose outcomes are checked against
	// the row-by-row reference.
	rocSampleEvery = 16
)

// rocVoters is the paper's Figure 2 voting sweep.
var rocVoters = []int{1, 3, 5, 7, 9, 11, 13, 15, 17}

// rocInputs is roc-forest's set-up state: a fleet already in code space.
type rocInputs struct {
	model     *forest.Binned
	series    []detect.BinnedSeries
	failHours []int
	isFailed  []bool
	samples   int
	// ref[k][j] is sampled drive j·rocSampleEvery's outcome at rocVoters[k].
	ref              [][]detect.Outcome
	trainS, compileS float64
}

func setupROC(e *env) (*rocInputs, string, error) {
	streams, err := windowFleet(e.cfg.seed, e.scaled(rocDrives), rocRows, rocFirstHour)
	if err != nil {
		return nil, "", err
	}
	ds, err := trainingSet(e)
	if err != nil {
		return nil, "", err
	}
	x, y, w := ds.XMatrix()
	in := &rocInputs{}
	t0 := time.Now()
	f, err := forest.TrainClassifier(x, y, w, forest.Config{
		Trees:  rocTrees,
		Params: cart.Params{MinSplit: 20, MinBucket: 7, LossFA: 10},
		Seed:   1,
	})
	if err != nil {
		return nil, "", err
	}
	in.trainS = time.Since(t0).Seconds()
	t0 = time.Now()
	bm, err := dataset.BinMatrix(x, dataset.MaxBinsLimit)
	if err != nil {
		return nil, "", err
	}
	in.model, err = f.Compile().CompileBinned(bm)
	if err != nil {
		return nil, "", err
	}
	in.compileS = time.Since(t0).Seconds()

	features := smart.CriticalFeatures()
	series := make([]detect.Series, len(streams))
	for i, s := range streams {
		series[i] = detect.ExtractSeries(features, s.recs, 0, len(s.recs))
		in.failHours = append(in.failHours, s.failHour)
		in.isFailed = append(in.isFailed, s.failed)
		in.samples += len(series[i].X)
	}
	in.series, err = detect.QuantizeFleet(bm, series, &detect.FleetCodes{})
	if err != nil {
		return nil, "", err
	}
	in.ref = rocReference(in.model, in.series, in.failHours)

	parts := [][]byte{streamsDigest(streams)}
	for _, t := range f.Trees {
		b, err := json.Marshal(t)
		if err != nil {
			return nil, "", err
		}
		parts = append(parts, b)
	}
	return in, digestOf(parts...), nil
}

// rocReference scores every sampled drive row by row with the binned
// forest's Predict and runs the shared vote window per N.
func rocReference(model *forest.Binned, series []detect.BinnedSeries, failHours []int) [][]detect.Outcome {
	ref := make([][]detect.Outcome, len(rocVoters))
	for i := 0; i < len(series); i += rocSampleEvery {
		s := series[i]
		scores := make([]float64, len(s.Codes))
		for j, codes := range s.Codes {
			scores[j] = model.Predict(codes)
		}
		for k, n := range rocVoters {
			idx, _ := detect.VoteAlarm(scores, n, 0)
			ref[k] = append(ref[k], detect.AlarmOutcome(s.Hours, idx, failHours[i]))
		}
	}
	return ref
}

// checkROC counts the sampled outcomes of one pass that differ from the
// reference, plus every curve point whose counts differ from want (the
// first pass's curve; nil skips that check).
func checkROC(in *rocInputs, outs [][]detect.Outcome, curve, want []eval.Result) int64 {
	var failed int64
	for k := range rocVoters {
		for j, r := range in.ref[k] {
			if outs[k][j*rocSampleEvery] != r {
				failed++
			}
		}
		if want != nil && !sameCounts(curve[k], want[k]) {
			failed++
		}
	}
	return failed
}

func sameCounts(a, b eval.Result) bool {
	return a.GoodTotal == b.GoodTotal && a.GoodAlarmed == b.GoodAlarmed &&
		a.FailedTotal == b.FailedTotal && a.FailedDetected == b.FailedDetected && len(a.TIAs) == len(b.TIAs)
}

// rocPass is one Figure 2 sweep: pack the fleet once, then run it for
// every N.
func rocPass(tr *tracer, pass int, in *rocInputs, workers int) (outs [][]detect.Outcome, curve []eval.Result, steals int64, root int, err error) {
	root = tr.begin("roc.pass", -1, pass)
	sp := tr.begin("sweep.prepare_binned", root, pass)
	fleet, err := sweep.PrepareBinned(in.series, 0)
	if err != nil {
		return nil, nil, 0, root, err
	}
	tr.end(sp, int64(in.samples))
	for _, n := range rocVoters {
		sp = tr.begin("sweep.run", root, pass)
		res, err := sweep.Run(in.model, fleet, in.failHours, sweep.Config{Voters: n, Workers: workers})
		if err != nil {
			return nil, nil, 0, root, err
		}
		tr.end(sp, res.Total.Samples)
		sp = tr.begin("eval.count", root, pass)
		curve = append(curve, countOutcomes(res.Outcomes, in.isFailed))
		tr.end(sp, int64(len(res.Outcomes)))
		outs = append(outs, res.Outcomes)
		steals += res.Total.Steals
	}
	tr.end(root, 0)
	return outs, curve, steals, root, nil
}

func runROCForest(e *env) error {
	in, err := setupRepeated(e, func() (*rocInputs, string, error) { return setupROC(e) }, func(*rocInputs) {})
	if err != nil {
		return err
	}
	if err := settle(e.cfg.workdir); err != nil {
		return err
	}
	drives := int64(len(in.series) * len(rocVoters))
	var walls, tracedWalls, coverage, steals, workers1 []float64
	var ledgers []passLedger
	var first []eval.Result
	// measure runs one pass and checks it.
	measure := func(pass, workers int) (time.Duration, int, int64, error) {
		t0 := time.Now()
		outs, curve, st, root, err := rocPass(e.tr, pass, in, workers)
		wall := time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		e.count(drives, checkROC(in, outs, curve, first))
		if first == nil {
			first = curve
		}
		return wall, root, st, nil
	}
	start := time.Now()
	for pass := 0; e.measuring(start, pass, minPasses); pass++ {
		if err := e.sampleRef(true); err != nil {
			return err
		}
		e.tr.on = false
		wall, _, _, err := measure(pass, 0)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		if !e.cfg.traced {
			continue
		}
		e.tr.on = true
		wall, root, st, err := measure(pass, 0)
		if err != nil {
			return err
		}
		l := e.tr.ledger(root)
		ledgers = append(ledgers, l)
		tracedWalls = append(tracedWalls, wall.Seconds())
		coverage = append(coverage, l.staged().Seconds()/l.root.Seconds())
		steals = append(steals, float64(st))
		e.tr.on = false
		wall, _, _, err = measure(pass, 1)
		if err != nil {
			return err
		}
		workers1 = append(workers1, wall.Seconds())
	}
	rss, err := procStatusMB("self", "VmHWM")
	if err != nil {
		return err
	}
	pass := median(walls)
	scored := float64(in.samples * len(rocVoters))
	if err := e.reportTimes(pass*1000, scored/pass); err != nil {
		return err
	}
	e.e2e["max_rss_mb"] = rss
	e.logf("%d passes over %d drives × %d samples, N=1..17: pass %.3fs median, %.3g scores/s",
		len(walls), len(in.series), in.samples/max(1, len(in.series)), pass, scored/pass)
	if !e.cfg.traced {
		return nil
	}
	stages := stageMedians(ledgers)
	e.layer["bench.samples"] = float64(len(walls))
	e.layer["ledger.coverage"] = median(coverage)
	e.layer["ledger.overhead"] = median(tracedWalls)/pass - 1
	e.layer["sweep.prepare_binned_s"] = stages["sweep.prepare_binned"]
	e.layer["sweep.run_s"] = stages["sweep.run"]
	e.layer["eval.count_s"] = stages["eval.count"]
	// The workers=1 figure is a whole pass on one worker; subtract the
	// pass's other stages so it compares with sweep.run_s.
	e.layer["sweep.run_workers1_s"] = median(workers1) - stages["sweep.prepare_binned"] - stages["eval.count"]
	e.layer["sweep.steals"] = median(steals)
	e.layer["detect.samples"] = float64(in.samples)
	e.layer["cart.train_s"] = in.trainS
	e.layer["cart.compile_s"] = in.compileS
	return nil
}
