package experiments

import (
	"fmt"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/health"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// rtPair bundles the §V-C regression trees: the health-degree model with
// personalized windows, the same model with the global deterioration
// window (Eq. 5 — the paper notes it "does not perform very well"), and
// the ±1-target control group.
type rtPair struct {
	health  *cart.Tree
	global  *cart.Tree
	control *cart.Tree
}

// rtModels trains (memoized) the §V-C regression-tree pair on family "W":
// the health-degree model, whose failed-sample targets follow the
// personalized deterioration windows derived from a first CT pass, and the
// control regressor trained on the same samples with ±1 targets.
func (e *Env) rtModels() (rtPair, error) {
	v, err := e.memoize("rtModels/W", func() (any, error) {
		features := smart.CriticalFeatures()
		// First pass: the CT model determines each failed training
		// drive's achievable time in advance, which becomes its
		// personalized deterioration window w_d (§III-B, Eq. 6).
		tree, err := e.standardCT("W")
		if err != nil {
			return nil, err
		}
		ctDet := &detect.Voting{Model: tree, Voters: 1}

		series := make(map[int]detect.Series)
		failHours := make(map[int]int)
		b, err := dataset.NewBuilder(dataset.Config{
			Features:              features,
			PeriodStart:           0,
			PeriodEnd:             simulate.HoursPerWeek,
			SamplesPerGoodDrive:   e.goodSamplesPerDrive(),
			FailedSamplesPerDrive: 12, // paper: 12 samples evenly within the window
			FailedShare:           0.2,
			Seed:                  e.cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		type failedTrace struct {
			d     simulate.Drive
			trace []smart.Record
		}
		var failed []failedTrace
		e.forEachTrace(e.fleet.DrivesOf("W"), func(d simulate.Drive, trace []smart.Record) {
			if d.Failed {
				if dataset.IsTrainFailedDrive(e.cfg.Seed, d.Index, 0.7) {
					failed = append(failed, failedTrace{d, trace})
					series[d.Index] = detect.ExtractSeries(features, trace, 0, len(trace))
					failHours[d.Index] = d.FailHour
				}
			} else {
				b.AddGoodDrive(d.Index, trace)
			}
		})
		windows, err := health.PersonalizedWindows(ctDet, series, failHours)
		if err != nil {
			return nil, err
		}
		for _, ft := range failed {
			w, ok := windows[ft.d.Index]
			if !ok {
				// Drives the CT model missed fall back to the
				// global 24 h window (§V-C).
				w = health.DefaultWindowHours
			}
			b.AddFailedDriveWindow(ft.d.Index, ft.d.FailHour, w, ft.trace)
		}
		ds, err := b.Finalize()
		if err != nil {
			return nil, err
		}

		params := cart.Params{MinSplit: 20, MinBucket: 7, CP: 0.001, Workers: e.cfg.Workers, MaxBins: e.cfg.MaxBins}
		trainRT := func() (*cart.Tree, error) {
			x, y, wts := ds.XMatrix()
			tree, err := cart.TrainRegressor(x, y, wts, params)
			if err != nil {
				return nil, err
			}
			tree.FeatureNames = features.Names()
			return tree, nil
		}

		// Personalized windows (Eq. 6).
		if err := ds.SetHealthTargets(windows, health.DefaultWindowHours); err != nil {
			return nil, err
		}
		healthTree, err := trainRT()
		if err != nil {
			return nil, err
		}

		// Global window (Eq. 5): every failed drive shares one
		// deterioration window.
		if err := ds.SetHealthTargets(nil, 168); err != nil {
			return nil, err
		}
		globalTree, err := trainRT()
		if err != nil {
			return nil, err
		}

		// Control group: ±1 targets.
		ds.SetClassificationTargets()
		controlTree, err := trainRT()
		if err != nil {
			return nil, err
		}
		return rtPair{health: healthTree, global: globalTree, control: controlTree}, nil
	})
	if err != nil {
		return rtPair{}, err
	}
	return v.(rtPair), nil
}

// thresholdCurve sweeps the mean-threshold detector over the given cuts
// on family "W".
func (e *Env) thresholdCurve(model detect.Predictor, thresholds []float64) eval.Curve {
	curve := make(eval.Curve, len(thresholds))
	for i, th := range thresholds {
		det := &detect.MeanThreshold{Model: model, Voters: 11, Threshold: th}
		curve[i] = eval.Point{Param: th, Result: e.scan(e.criticalSet("W"), det)}
	}
	return curve
}

// Figure10 reproduces Fig. 10: ROC curves of the RT health-degree model
// versus the ±1-classifier RT, sweeping detection thresholds with N = 11
// averaging.
func (e *Env) Figure10() (*Report, error) {
	r := &Report{ID: "figure10", Title: "ROC of RT health-degree model vs RT classifier (paper Fig. 10)"}
	pair, err := e.rtModels()
	if err != nil {
		return nil, err
	}
	healthCurve := e.thresholdCurve(pair.health, []float64{-0.5, -0.37, -0.3, -0.2, -0.1, -0.02, 0})
	globalCurve := e.thresholdCurve(pair.global, []float64{-0.5, -0.37, -0.3, -0.2, -0.1, -0.02, 0})
	controlCurve := e.thresholdCurve(pair.control, []float64{-0.94, -0.86, -0.6, -0.4, -0.2, -0.05, 0})
	r.addf("health degree model, personalized windows (thresholds as in the paper):")
	for _, line := range thresholdLines(healthCurve) {
		r.addf("%s", line)
	}
	r.addf("health degree model, global window (§III-B Eq. 5 ablation):")
	for _, line := range thresholdLines(globalCurve) {
		r.addf("%s", line)
	}
	r.addf("classifier RT (control group):")
	for _, line := range thresholdLines(controlCurve) {
		r.addf("%s", line)
	}
	r.addROCChart("RT health-degree model vs classifier RT (paper Fig. 10)",
		map[string]eval.Curve{
			"personalized windows": healthCurve,
			"global window":        globalCurve,
			"classifier":           controlCurve,
		})
	return r, nil
}

func thresholdLines(c eval.Curve) []string {
	lines := []string{fmt.Sprintf("  %9s %9s %9s %10s", "threshold", "FAR(%)", "FDR(%)", "TIA(h)")}
	for _, p := range c {
		lines = append(lines, fmt.Sprintf("  %9.2f %9.4f %9.2f %10.1f",
			p.Param, p.Result.FAR()*100, p.Result.FDR()*100, p.Result.MeanTIA()))
	}
	return lines
}
