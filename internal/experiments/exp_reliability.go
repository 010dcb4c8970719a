package experiments

import (
	"fmt"

	"hddcart/internal/detect"
	"hddcart/internal/plot"
	"hddcart/internal/reliability"
)

// paperCT are the CT operating parameters the paper plugs into its
// reliability models (k = 0.9549, γ = 1/355 h).
var paperCT = reliability.Prediction{FDR: 0.9549, TIAHours: 355}

// measuredPredictions evaluates (memoized) the three models at their
// standard operating points on family "W" and extracts (k, TIA) for Eq. 7:
// CT and BP ANN with 11-voter detection, RT health degrees at threshold
// −0.3 with 11-sample averaging.
func (e *Env) measuredPredictions() (map[string]reliability.Prediction, error) {
	v, err := e.memoize("measuredPredictions", func() (any, error) {
		tree, net, err := e.standardModels("W")
		if err != nil {
			return nil, err
		}
		rts, err := e.rtModels()
		if err != nil {
			return nil, err
		}
		out := make(map[string]reliability.Prediction, 3)
		dets := map[string]detect.Detector{
			"CT":     &detect.Voting{Model: tree, Voters: 11},
			"BP ANN": &detect.Voting{Model: net, Voters: 11},
			"RT":     &detect.MeanThreshold{Model: rts.health, Voters: 11, Threshold: -0.3},
		}
		for _, name := range sortedKeys(dets) {
			det := dets[name]
			res := e.scan(e.criticalSet("W"), det)
			out[name] = reliability.Prediction{FDR: res.FDR(), TIAHours: res.MeanTIA()}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[string]reliability.Prediction), nil
}

// Table6 reproduces Table VI: the single-drive MTTDL under Eq. 7 with no
// prediction and with the BP ANN, CT and RT models — once with the paper's
// published (k, γ) and once with the operating points measured on the
// synthetic fleet.
func (e *Env) Table6() (*Report, error) {
	r := &Report{ID: "table6", Title: "Impact of failure prediction on MTTDL (paper Table VI)"}
	d := reliability.SATADrive()

	base := reliability.SingleDriveMTTDL(d, reliability.NoPrediction) / reliability.HoursPerYear
	paperRows := []struct {
		name string
		p    reliability.Prediction
	}{
		{"No prediction", reliability.NoPrediction},
		{"BP ANN", reliability.Prediction{FDR: 0.9098, TIAHours: 343}},
		{"CT", paperCT},
		{"RT", reliability.Prediction{FDR: 0.9624, TIAHours: 351}},
	}
	r.addf("with the paper's published operating points:")
	r.addf("  %-14s %14s %12s", "Model", "MTTDL (years)", "% increase")
	for _, row := range paperRows {
		years := reliability.SingleDriveMTTDL(d, row.p) / reliability.HoursPerYear
		r.addf("  %-14s %14.2f %12.2f", row.name, years, (years/base-1)*100)
	}

	measured, err := e.measuredPredictions()
	if err != nil {
		return nil, err
	}
	r.addf("with operating points measured on the synthetic fleet:")
	r.addf("  %-14s %8s %10s %14s %12s", "Model", "k", "TIA (h)", "MTTDL (years)", "% increase")
	for _, name := range []string{"BP ANN", "CT", "RT"} {
		p := measured[name]
		years := reliability.SingleDriveMTTDL(d, p) / reliability.HoursPerYear
		r.addf("  %-14s %8.4f %10.1f %14.2f %12.2f",
			name, p.FDR, p.TIAHours, years, (years/base-1)*100)
	}
	return r, nil
}

// Figure12 reproduces Fig. 12: MTTDL versus system size for four RAID
// configurations — SAS RAID-6 and SATA RAID-6 without prediction (Eq. 8)
// against SATA RAID-6 and SATA RAID-5 with the CT model (the Fig. 11
// Markov chain and its RAID-5 counterpart).
func (e *Env) Figure12() (*Report, error) {
	r := &Report{ID: "figure12", Title: "MTTDL of RAID systems vs size (paper Fig. 12)"}
	sas, sata := reliability.SASDrive(), reliability.SATADrive()
	r.addf("CT operating point: k = %.4f, γ = 1/%.0f h (paper's values)", paperCT.FDR, paperCT.TIAHours)
	r.addf("%8s %18s %18s %18s %18s", "drives",
		"SAS R6 w/o", "SATA R6 w/o", "SATA R6 w/ CT", "SATA R5 w/ CT")
	r.addf("%8s %18s %18s %18s %18s", "", "(Myears)", "(Myears)", "(Myears)", "(Myears)")
	chart := plot.Chart{
		Title:  "MTTDL of RAID systems (paper Fig. 12)",
		XLabel: "number of drives",
		YLabel: "MTTDL (million years, log)",
		LogY:   true,
		Series: make([]plot.Series, 4),
	}
	for i, name := range []string{"SAS RAID-6 w/o", "SATA RAID-6 w/o", "SATA RAID-6 w/ CT", "SATA RAID-5 w/ CT"} {
		chart.Series[i].Name = name
	}
	for _, n := range []int{10, 50, 100, 250, 500, 1000, 1500, 2000, 2500} {
		sas6 := reliability.RAID6MTTDLNoPrediction(sas, n)
		sata6 := reliability.RAID6MTTDLNoPrediction(sata, n)
		sata6ct, err := reliability.RAID6PredictionMTTDL(n, sata, paperCT)
		if err != nil {
			return nil, fmt.Errorf("figure12 RAID-6 n=%d: %w", n, err)
		}
		sata5ct, err := reliability.RAID5PredictionMTTDL(n, sata, paperCT)
		if err != nil {
			return nil, fmt.Errorf("figure12 RAID-5 n=%d: %w", n, err)
		}
		toM := func(h float64) float64 { return h / reliability.HoursPerYear / 1e6 }
		r.addf("%8d %18.6g %18.6g %18.6g %18.6g",
			n, toM(sas6), toM(sata6), toM(sata6ct), toM(sata5ct))
		for i, v := range []float64{toM(sas6), toM(sata6), toM(sata6ct), toM(sata5ct)} {
			chart.Series[i].X = append(chart.Series[i].X, float64(n))
			chart.Series[i].Y = append(chart.Series[i].Y, v)
		}
	}
	r.Charts = append(r.Charts, chart)
	return r, nil
}
