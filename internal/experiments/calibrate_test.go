package experiments

import (
	"testing"

	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// TestCalibrationCT trains the paper's standard CT pipeline on a scaled
// fleet and checks the headline behaviours hold: high FDR, low FAR, FAR
// falling with voter count, long TIA. It doubles as the calibration probe
// for the simulator parameters (run with -v to see the numbers).
func TestCalibrationCT(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs a mid-sized fleet")
	}
	if raceDetectorEnabled {
		// Pure numeric calibration on a mid-sized fleet; the concurrent
		// paths it would exercise are covered by the race-mode sweep in
		// TestRunAllExperimentsSmall at a fraction of the cost.
		t.Skip("calibration sweep is too slow under the race detector")
	}
	env, err := NewEnv(Config{Seed: 1, GoodScale: 0.2, FailedScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	features := smart.CriticalFeatures()
	ds, err := env.trainingSet("W", features, 0, simulate.HoursPerWeek, 168)
	if err != nil {
		t.Fatal(err)
	}
	good, failed := ds.Counts()
	t.Logf("training samples: %d good, %d failed", good, failed)
	tree, err := env.trainCT(ds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tree: %d nodes, depth %d", tree.NumNodes(), tree.Depth())
	t.Logf("\n%s", tree.String())

	for _, p := range env.votingCurve(env.criticalSet("W"), tree, []int{1, 11, 27}) {
		n, res := int(p.Param), p.Result
		t.Logf("N=%2d: %s", n, res.String())
		if n == 1 {
			if res.FDR() < 0.80 {
				t.Errorf("N=1 FDR = %.2f%%, want ≥ 80%%", res.FDR()*100)
			}
			if res.FAR() > 0.05 {
				t.Errorf("N=1 FAR = %.2f%%, want ≤ 5%%", res.FAR()*100)
			}
		}
		if n == 11 {
			if res.FDR() < 0.85 {
				t.Errorf("N=11 FDR = %.2f%%, want ≥ 85%%", res.FDR()*100)
			}
			if res.FAR() > 0.01 {
				t.Errorf("N=11 FAR = %.2f%%, want ≤ 1%%", res.FAR()*100)
			}
			if res.MeanTIA() < 200 {
				t.Errorf("N=11 TIA = %.0f h, want ≥ 200", res.MeanTIA())
			}
		}
	}
}
