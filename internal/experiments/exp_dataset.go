package experiments

import (
	"fmt"

	"hddcart/internal/par"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// Table1 reproduces Table I (dataset details): per family and class, the
// number of drives, the recorded period and the total sample count of the
// synthetic fleet at the configured scale.
func (e *Env) Table1() (*Report, error) {
	r := &Report{ID: "table1", Title: "Dataset details (paper Table I)"}
	r.addf("%-8s %-7s %9s %10s %14s", "Family", "Class", "Drives", "Period", "Samples")

	type key struct {
		family string
		failed bool
	}
	drives := e.fleet.Drives()
	lengths := make([]int, len(drives))
	par.For(len(drives), e.cfg.Workers, func(i int) {
		lengths[i] = len(e.fleet.Trace(drives[i].Index))
	})
	counts := make(map[key]int)
	samples := make(map[key]int)
	for i, d := range drives {
		k := key{d.Family, d.Failed}
		counts[k]++
		samples[k] += lengths[i]
	}

	for _, fam := range []string{"W", "Q"} {
		for _, failed := range []bool{false, true} {
			k := key{fam, failed}
			class, period := "Good", fmt.Sprintf("%d days", simulate.GoodDays)
			if failed {
				class, period = "Failed", fmt.Sprintf("%d days", simulate.FailedDays)
			}
			r.addf("%-8s %-7s %9d %10s %14d", fam, class, counts[k], period, samples[k])
		}
	}
	r.addf("scale: good ×%.3g, failed ×%.3g of the paper's 25,792-drive dataset",
		e.cfg.GoodScale, e.cfg.FailedScale)
	return r, nil
}

// Table2 reproduces Table II: the preliminarily selected SMART attributes
// (basic features).
func (e *Env) Table2() (*Report, error) {
	r := &Report{ID: "table2", Title: "Preliminarily selected SMART attributes (paper Table II)"}
	r.addf("%-4s %s", "#", "Attribute")
	for i, f := range smart.BasicFeatures() {
		r.addf("%-4d %s", i+1, f.String())
	}
	return r, nil
}

// FeatureSelection demonstrates the §IV-B statistical pipeline on the
// synthetic data: it scores the full candidate pool with the rank-sum,
// reverse-arrangements and z-score tests and prints the ranking. (The
// numbered experiments use the paper's published 13-feature outcome,
// smart.CriticalFeatures, so they are insensitive to selection noise.)
func (e *Env) FeatureSelection() (*Report, error) {
	r := &Report{ID: "featsel", Title: "Statistical feature selection (paper §IV-B)"}
	scores, err := e.featureScores()
	if err != nil {
		return nil, err
	}
	for _, s := range scores {
		r.addf("%s", s.String())
	}
	return r, nil
}
