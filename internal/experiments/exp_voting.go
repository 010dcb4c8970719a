package experiments

import (
	"fmt"

	"hddcart/internal/ann"
	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/par"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// standardModels trains (once per family, memoized) the paper's standard
// CT (168 h window, see standardCT) and BP ANN (12 h window) models on
// week-1 data with the 13 critical features.
func (e *Env) standardModels(family string) (*cart.Tree, *ann.Network, error) {
	tree, err := e.standardCT(family)
	if err != nil {
		return nil, nil, err
	}
	v, err := e.memoize("standardANN/"+family, func() (any, error) {
		annDS, err := e.trainingSet(family, smart.CriticalFeatures(), 0, simulate.HoursPerWeek, 12)
		if err != nil {
			return nil, err
		}
		return e.trainANN(annDS)
	})
	if err != nil {
		return nil, nil, err
	}
	return tree, v.(*ann.Network), nil
}

// standardCT trains (once per family, memoized) the paper's standard CT
// model on ctTrainingSet. Table IV's 168 h row, Baselines and Forest
// score this same tree.
func (e *Env) standardCT(family string) (*cart.Tree, error) {
	v, err := e.memoize("standardCT/"+family, func() (any, error) {
		ds, err := e.ctTrainingSet(family)
		if err != nil {
			return nil, err
		}
		return e.trainCT(ds)
	})
	if err != nil {
		return nil, err
	}
	return v.(*cart.Tree), nil
}

// ctTrainingSet builds (once per family, memoized) the standard CT
// training set: week-1 data, 13 critical features, 168 h failed window.
// Baselines, Forest and Boost train their models on it too; none of them
// mutates it (dataset.XMatrix copies targets and weights, and no trainer
// writes to the shared feature rows).
func (e *Env) ctTrainingSet(family string) (*dataset.Dataset, error) {
	v, err := e.memoize("ctTrainingSet/"+family, func() (any, error) {
		return e.trainingSet(family, smart.CriticalFeatures(), 0, simulate.HoursPerWeek, 168)
	})
	if err != nil {
		return nil, err
	}
	return v.(*dataset.Dataset), nil
}

// votingCurve sweeps the voter count for one model over a test set. Each
// sample is scored once for every window size via detect.MultiVoting.
// Drives are scanned in parallel but each drive's outcomes land at its own
// index and fold into the counters serially in drive order, so the curve
// is identical for every worker count.
func (e *Env) votingCurve(ts *testSet, model detect.Predictor, voters []int) eval.Curve {
	multi := &detect.MultiVoting{Model: model, Voters: voters}
	outs := make([][]detect.Outcome, len(ts.series))
	par.For(len(ts.series), e.cfg.Workers, func(i int) {
		outs[i] = multi.ScanAll(ts.series[i], ts.failHours[i])
	})
	counters := make([]eval.Counter, len(voters))
	for di, dOuts := range outs {
		for i, out := range dOuts {
			ts.add(&counters[i], di, out)
		}
	}
	curve := make(eval.Curve, len(voters))
	for i, n := range voters {
		curve[i] = eval.Point{Param: float64(n), Result: counters[i].Result()}
	}
	return curve
}

// Figure2 reproduces Fig. 2: the voting-based detection ROC of the CT and
// BP ANN models on family "W", N ∈ {1,3,5,7,9,11,15,17,27}.
func (e *Env) Figure2() (*Report, error) {
	r := &Report{ID: "figure2", Title: "Voting-based detection, CT vs BP ANN on family W (paper Fig. 2)"}
	tree, net, err := e.standardModels("W")
	if err != nil {
		return nil, err
	}
	voters := []int{1, 3, 5, 7, 9, 11, 15, 17, 27}
	ctCurve := e.votingCurve(e.criticalSet("W"), tree, voters)
	annCurve := e.votingCurve(e.criticalSet("W"), net, voters)
	r.addf("CT model:")
	for _, line := range curveLines(ctCurve) {
		r.addf("%s", line)
	}
	r.addf("BP ANN model:")
	for _, line := range curveLines(annCurve) {
		r.addf("%s", line)
	}
	r.addROCChart("Voting-based detection on family W (paper Fig. 2)",
		map[string]eval.Curve{"CT": ctCurve, "BP ANN": annCurve})
	return r, nil
}

// curveLines formats a curve as N/FAR/FDR/TIA rows.
func curveLines(c eval.Curve) []string {
	lines := []string{fmt.Sprintf("  %6s %9s %9s %10s", "N", "FAR(%)", "FDR(%)", "TIA(h)")}
	for _, p := range c {
		lines = append(lines, fmt.Sprintf("  %6.0f %9.4f %9.2f %10.1f",
			p.Param, p.Result.FAR()*100, p.Result.FDR()*100, p.Result.MeanTIA()))
	}
	return lines
}

// tiaHistogramReport renders a Figs. 3/4-style TIA distribution.
func tiaHistogramReport(r *Report, res eval.Result) {
	hist := eval.TIAHistogram(res.TIAs)
	r.addf("operating point: FAR %.3f%%, FDR %.2f%%", res.FAR()*100, res.FDR()*100)
	r.addf("%-10s %s", "TIA (h)", "drives")
	for i, label := range eval.TIABucketLabels {
		r.addf("%-10s %d", label, hist[i])
	}
}

// Figure3 reproduces Fig. 3: the TIA distribution of the BP ANN model at a
// low-FAR voting operating point (N = 11).
func (e *Env) Figure3() (*Report, error) {
	r := &Report{ID: "figure3", Title: "Time-in-advance distribution, BP ANN (paper Fig. 3)"}
	_, net, err := e.standardModels("W")
	if err != nil {
		return nil, err
	}
	curve := e.votingCurve(e.criticalSet("W"), net, []int{11})
	tiaHistogramReport(r, curve[0].Result)
	return r, nil
}

// Figure4 reproduces Fig. 4: the TIA distribution of the CT model at its
// lowest-FAR operating point (N = 27).
func (e *Env) Figure4() (*Report, error) {
	r := &Report{ID: "figure4", Title: "Time-in-advance distribution, CT (paper Fig. 4)"}
	tree, err := e.standardCT("W")
	if err != nil {
		return nil, err
	}
	curve := e.votingCurve(e.criticalSet("W"), tree, []int{27})
	tiaHistogramReport(r, curve[0].Result)
	return r, nil
}

// Figure5 reproduces Fig. 5: the voting ROC on the smaller family "Q",
// N ∈ {1,3,5,11,17}, plus the failure-cause interpretation the paper draws
// from the trees.
func (e *Env) Figure5() (*Report, error) {
	r := &Report{ID: "figure5", Title: "Prediction on family Q, CT vs BP ANN (paper Fig. 5)"}
	tree, net, err := e.standardModels("Q")
	if err != nil {
		return nil, err
	}
	voters := []int{1, 3, 5, 11, 17}
	ctCurve := e.votingCurve(e.criticalSet("Q"), tree, voters)
	annCurve := e.votingCurve(e.criticalSet("Q"), net, voters)
	r.addf("CT model:")
	for _, line := range curveLines(ctCurve) {
		r.addf("%s", line)
	}
	r.addf("BP ANN model:")
	for _, line := range curveLines(annCurve) {
		r.addf("%s", line)
	}
	r.addROCChart("Prediction on family Q (paper Fig. 5)",
		map[string]eval.Curve{"CT": ctCurve, "BP ANN": annCurve})
	r.addf("")
	r.addf("CT interpretability — top variables by importance (family Q):")
	imp := tree.VariableImportance()
	names := smart.CriticalFeatures().Names()
	for i, v := range imp {
		if v > 0 {
			r.addf("  %-42s %.4f", names[i], v)
		}
	}
	return r, nil
}
