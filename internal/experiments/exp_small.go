package experiments

import (
	"fmt"

	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// subsetDrives deterministically keeps the given fraction of a family's
// drives (both classes), emulating the paper's datasets A–D drawn from the
// "W" population.
func (e *Env) subsetDrives(family string, frac float64, salt int64) []simulate.Drive {
	var out []simulate.Drive
	for _, d := range e.fleet.DrivesOf(family) {
		h := uint64(e.cfg.Seed+salt)*0x9e3779b97f4a7c15 + uint64(d.Index)*0xd1342543de82ef95
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		if float64(h%1_000_000) < frac*1_000_000 {
			out = append(out, d)
		}
	}
	return out
}

// Table5 reproduces Table V: prediction performance on small datasets A–D
// (10/25/50/75% of "W"), voting with 11 voters, for both models.
func (e *Env) Table5() (*Report, error) {
	r := &Report{ID: "table5", Title: "Prediction performance on small-sized datasets (paper Table V)"}
	r.addf("%-8s %-9s %9s %9s %11s %8s %8s", "Model", "Dataset", "FAR(%)", "FDR(%)", "TIA(hours)", "good", "failed")
	features := smart.CriticalFeatures()
	names := []string{"A", "B", "C", "D"}
	fracs := []float64{0.10, 0.25, 0.50, 0.75}

	type cell struct {
		model, ds string
		res       eval.Result
		good, bad int
	}
	var cells []cell
	for i, frac := range fracs {
		drives := e.subsetDrives("W", frac, int64(i)*7919)
		var good, bad int
		for _, d := range drives {
			if d.Failed {
				bad++
			} else {
				good++
			}
		}
		ctDS, err := e.trainingSetDrives(drives, features, 0, simulate.HoursPerWeek, 168)
		if err != nil {
			return nil, err
		}
		tree, err := e.trainCT(ctDS)
		if err != nil {
			return nil, fmt.Errorf("table5 CT %s: %w", names[i], err)
		}
		annDS, err := e.trainingSetDrives(drives, features, 0, simulate.HoursPerWeek, 12)
		if err != nil {
			return nil, err
		}
		net, err := e.trainANN(annDS)
		if err != nil {
			return nil, fmt.Errorf("table5 ANN %s: %w", names[i], err)
		}
		in := make(map[int]bool, len(drives))
		for _, d := range drives {
			in[d.Index] = true
		}
		ts := e.criticalSet("W").filter(func(d simulate.Drive) bool { return in[d.Index] })
		for _, m := range []struct {
			name  string
			model detect.Predictor
		}{{"BP ANN", net}, {"CT", tree}} {
			res := e.scan(ts, &detect.Voting{Model: m.model, Voters: 11})
			cells = append(cells, cell{m.name, names[i], res, good, bad})
		}
	}
	// Print grouped by model like the paper.
	for _, model := range []string{"BP ANN", "CT"} {
		for _, c := range cells {
			if c.model != model {
				continue
			}
			r.addf("%-8s %-9s %9.2f %9.2f %11.1f %8d %8d",
				c.model, c.ds, c.res.FAR()*100, c.res.FDR()*100, c.res.MeanTIA(), c.good, c.bad)
		}
	}
	return r, nil
}
