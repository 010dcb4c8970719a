package experiments

import (
	"fmt"

	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/featsel"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// featureScores runs the §IV-B statistical evaluation over the candidate
// pool on family "W", week 1.
func (e *Env) featureScores() ([]featsel.Score, error) {
	pool := featsel.CandidateFeatures(6)
	data := featsel.Data{Features: pool}
	b, err := dataset.NewBuilder(dataset.Config{
		Features:            pool,
		PeriodStart:         0,
		PeriodEnd:           simulate.HoursPerWeek,
		SamplesPerGoodDrive: e.goodSamplesPerDrive(),
		FailedWindowHours:   168,
		Seed:                e.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	e.forEachTrace(e.fleet.DrivesOf("W"), func(d simulate.Drive, trace []smart.Record) {
		if d.Failed {
			if b.AddFailedDrive(d.Index, d.FailHour, trace) > 0 {
				s := detect.ExtractSeries(pool, trace, len(trace)-169, len(trace))
				data.FailedSeries = append(data.FailedSeries, s.X)
			}
		} else {
			b.AddGoodDrive(d.Index, trace)
		}
	})
	ds, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	for i := range ds.Samples {
		s := &ds.Samples[i]
		if s.Failed {
			data.Failed = append(data.Failed, s.X)
		} else {
			data.Good = append(data.Good, s.X)
		}
	}
	return featsel.Evaluate(data)
}

// table3Row evaluates one (model, feature set) cell of Table III with the
// paper's setup: 12-hour failed time window, sequential (N = 1) detection.
func (e *Env) table3Row(model string, features smart.FeatureSet) (eval.Result, error) {
	ds, err := e.trainingSet("W", features, 0, simulate.HoursPerWeek, 12)
	if err != nil {
		return eval.Result{}, err
	}
	var predictor detect.Predictor
	switch model {
	case "CT":
		tree, err := e.trainCT(ds)
		if err != nil {
			return eval.Result{}, err
		}
		predictor = tree
	case "BP ANN":
		net, err := e.trainANN(ds)
		if err != nil {
			return eval.Result{}, err
		}
		predictor = net
	default:
		return eval.Result{}, fmt.Errorf("experiments: unknown model %q", model)
	}
	var c eval.Counter
	e.scanDrives(e.fleet.DrivesOf("W"), features, &detect.Voting{Model: predictor, Voters: 1},
		0, simulate.HoursPerWeek, 0.7, e.cfg.Seed, &c)
	return c.Result(), nil
}

// Table3 reproduces Table III: the effectiveness of the three feature sets
// (12 basic, 19 expert-selected, 13 statistically selected) under both the
// BP ANN and CT models.
func (e *Env) Table3() (*Report, error) {
	r := &Report{ID: "table3", Title: "Effectiveness of three feature sets (paper Table III)"}
	r.addf("%-8s %-13s %9s %9s %11s", "Model", "Features", "FAR(%)", "FDR(%)", "TIA(hours)")
	sets := []struct {
		name     string
		features smart.FeatureSet
	}{
		{"12 features", smart.BasicFeatures()},
		{"19 features", smart.ExpertFeatures()},
		{"13 features", smart.CriticalFeatures()},
	}
	for _, model := range []string{"BP ANN", "CT"} {
		for _, set := range sets {
			res, err := e.table3Row(model, set.features)
			if err != nil {
				return nil, fmt.Errorf("table3 %s/%s: %w", model, set.name, err)
			}
			r.addf("%-8s %-13s %9.2f %9.2f %11.1f",
				model, set.name, res.FAR()*100, res.FDR()*100, res.MeanTIA())
		}
	}
	return r, nil
}

// Table4 reproduces Table IV: the impact of the failed time window
// (12..240 h) on the CT model.
func (e *Env) Table4() (*Report, error) {
	r := &Report{ID: "table4", Title: "Impact of time window on CT model (paper Table IV)"}
	r.addf("%-12s %9s %9s %11s", "Window", "FAR(%)", "FDR(%)", "TIA(hours)")
	features := smart.CriticalFeatures()
	for _, window := range []int{12, 24, 48, 96, 168, 240} {
		ds, err := e.trainingSet("W", features, 0, simulate.HoursPerWeek, window)
		if err != nil {
			return nil, err
		}
		tree, err := e.trainCT(ds)
		if err != nil {
			return nil, err
		}
		var c eval.Counter
		e.scanDrives(e.fleet.DrivesOf("W"), features, &detect.Voting{Model: tree, Voters: 1},
			0, simulate.HoursPerWeek, 0.7, e.cfg.Seed, &c)
		res := c.Result()
		r.addf("%-12s %9.2f %9.2f %11.1f",
			fmt.Sprintf("%d hours", window), res.FAR()*100, res.FDR()*100, res.MeanTIA())
	}
	return r, nil
}
