package experiments

import (
	"fmt"

	"hddcart/internal/baselines"
	"hddcart/internal/detect"
	"hddcart/internal/smart"
)

// Baselines ranks the §II prior-work methods against the CT model on
// identical family-"W" data: the in-drive SMART threshold algorithm
// (vendors' 3-10% FDR), Hamerly & Elkan's naive Bayes, Wang et al.'s
// Mahalanobis distance and Hughes et al.'s rank-sum detection.
func (e *Env) Baselines() (*Report, error) {
	r := &Report{ID: "baselines", Title: "Extension: prior-work methods of §II vs the CT model"}
	features := smart.CriticalFeatures()
	ds, err := e.ctTrainingSet("W")
	if err != nil {
		return nil, err
	}
	tree, err := e.standardCT("W")
	if err != nil {
		return nil, err
	}

	x, y, w := ds.XMatrix()
	var goodX [][]float64
	for i := range x {
		if y[i] > 0 {
			goodX = append(goodX, x[i])
		}
	}
	nb, err := baselines.TrainNaiveBayes(x, y, w, 0.2)
	if err != nil {
		return nil, err
	}
	md, err := baselines.TrainMahalanobis(goodX)
	if err != nil {
		return nil, err
	}
	// Rank-sum references get a bounded subsample (the test is O(ref·win)
	// per window).
	refs := goodX
	if len(refs) > 400 {
		step := len(refs) / 400
		sub := make([][]float64, 0, 400)
		for i := 0; i < len(refs); i += step {
			sub = append(sub, refs[i])
		}
		refs = sub
	}
	rs, err := baselines.NewRankSum(refs, 12, 6.5)
	if err != nil {
		return nil, err
	}
	smartTh := baselines.NewThresholdModel(features, baselines.ConservativeThresholds())

	r.addf("%-28s %9s %9s %11s", "method", "FAR(%)", "FDR(%)", "TIA(hours)")
	row := func(name string, det detect.Detector) {
		res := e.scan(e.criticalSet("W"), det)
		r.addf("%-28s %9.3f %9.2f %11.1f", name, res.FAR()*100, res.FDR()*100, res.MeanTIA())
	}
	row("SMART thresholds (in-drive)", &detect.Voting{Model: smartTh, Voters: 1})
	row("naive Bayes (N=11)", &detect.Voting{Model: nb, Voters: 11})
	row("Mahalanobis distance (N=11)", &detect.Voting{Model: md, Voters: 11})
	row(fmt.Sprintf("rank-sum (win=12, z>%.1f)", 6.5), rs)
	row("CT model (N=11)", &detect.Voting{Model: tree, Voters: 11})
	r.addf("")
	r.addf("§II context: vendors' thresholds reach 3-10%% FDR; rank-sum ~60%% at")
	r.addf("0.5%% FAR; Mahalanobis ~67%% at 0%% FAR — all far below the CT model.")
	return r, nil
}
