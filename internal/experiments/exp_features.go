package experiments

import (
	"fmt"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
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

// Table3 reproduces Table III: the effectiveness of the three feature sets
// (12 basic, 19 expert-selected, 13 statistically selected) under both the
// BP ANN and CT models, with the paper's setup: 12-hour failed time
// window, sequential (N = 1) detection. Each feature set's test set is
// built once, scored by both models and dropped before the next set.
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
	var rows [2][]string // the BP ANN rows, then the CT rows
	for _, set := range sets {
		ds, err := e.trainingSet("W", set.features, 0, simulate.HoursPerWeek, 12)
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", set.name, err)
		}
		net, err := e.trainANN(ds)
		if err != nil {
			return nil, fmt.Errorf("table3 BP ANN/%s: %w", set.name, err)
		}
		tree, err := e.trainCT(ds)
		if err != nil {
			return nil, fmt.Errorf("table3 CT/%s: %w", set.name, err)
		}
		ts := e.newTestSet("W", set.features)
		for m, model := range []struct {
			name string
			p    detect.Predictor
		}{{"BP ANN", net}, {"CT", tree}} {
			res := e.scan(ts, &detect.Voting{Model: model.p, Voters: 1})
			rows[m] = append(rows[m], fmt.Sprintf("%-8s %-13s %9.2f %9.2f %11.1f",
				model.name, set.name, res.FAR()*100, res.FDR()*100, res.MeanTIA()))
		}
	}
	r.Lines = append(append(r.Lines, rows[0]...), rows[1]...)
	return r, nil
}

// Table4 reproduces Table IV: the impact of the failed time window
// (12..240 h) on the CT model.
func (e *Env) Table4() (*Report, error) {
	r := &Report{ID: "table4", Title: "Impact of time window on CT model (paper Table IV)"}
	r.addf("%-12s %9s %9s %11s", "Window", "FAR(%)", "FDR(%)", "TIA(hours)")
	for _, window := range []int{12, 24, 48, 96, 168, 240} {
		tree, err := e.windowCT(window)
		if err != nil {
			return nil, err
		}
		res := e.scan(e.criticalSet("W"), &detect.Voting{Model: tree, Voters: 1})
		r.addf("%-12s %9.2f %9.2f %11.1f",
			fmt.Sprintf("%d hours", window), res.FAR()*100, res.FDR()*100, res.MeanTIA())
	}
	return r, nil
}

// windowCT trains Table IV's CT model on family W's critical features
// for one failed time window; the 168 h window is the standard CT.
func (e *Env) windowCT(window int) (*cart.Tree, error) {
	if window == 168 {
		return e.standardCT("W")
	}
	ds, err := e.trainingSet("W", smart.CriticalFeatures(), 0, simulate.HoursPerWeek, window)
	if err != nil {
		return nil, err
	}
	return e.trainCT(ds)
}
