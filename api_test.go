package hddcart

import (
	"math"
	"reflect"
	"testing"

	"hddcart/internal/detect"
)

// buildSmallDataset assembles a training set from a tiny fleet.
func buildSmallDataset(t *testing.T, seed int64) (*Fleet, *Dataset) {
	t.Helper()
	fleet, err := GenerateFleet(FleetConfig{Seed: seed, GoodScale: 0.004, FailedScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDatasetBuilder(DatasetConfig{
		Features:          CriticalFeatures(),
		PeriodStart:       0,
		PeriodEnd:         168,
		FailedWindowHours: 168,
		FailedShare:       0.2,
		Seed:              seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Drives() {
		trace := fleet.Trace(d.Index)
		if d.Failed {
			b.AddFailedDrive(d.Index, d.FailHour, trace)
		} else {
			b.AddGoodDrive(d.Index, trace)
		}
	}
	ds, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return fleet, ds
}

func TestEndToEndClassification(t *testing.T) {
	fleet, ds := buildSmallDataset(t, 5)
	good, failed := ds.Counts()
	if good == 0 || failed == 0 {
		t.Fatalf("degenerate dataset: %d good, %d failed", good, failed)
	}
	tree, err := TrainClassificationTree(ds, TreeParams{LossFA: 10})
	if err != nil {
		t.Fatal(err)
	}
	det := &VotingDetector{Model: tree, Voters: 11}
	var c Counter
	for _, d := range fleet.Drives() {
		trace := fleet.Trace(d.Index)
		if d.Failed {
			if IsTrainFailedDrive(5, d.Index, 0.7) {
				continue
			}
			s := ExtractSeries(CriticalFeatures(), trace, 0, len(trace))
			c.AddFailed(Scan(det, s, d.FailHour))
			continue
		}
		from, to, ok := TestStart(trace, 0, 168, 0.7)
		if !ok {
			continue
		}
		s := ExtractSeries(CriticalFeatures(), trace, from, to)
		c.AddGood(Scan(det, s, -1).Alarmed)
	}
	res := c.Result()
	if res.FDR() < 0.7 {
		t.Errorf("end-to-end FDR = %.2f%%, want ≥ 70%%", res.FDR()*100)
	}
	if res.FAR() > 0.05 {
		t.Errorf("end-to-end FAR = %.2f%%, want ≤ 5%%", res.FAR()*100)
	}
}

func TestEndToEndRegression(t *testing.T) {
	_, ds := buildSmallDataset(t, 6)
	if err := ds.SetHealthTargets(nil, 72); err != nil {
		t.Fatal(err)
	}
	rt, err := TrainRegressionTree(ds, TreeParams{})
	if err != nil {
		t.Fatal(err)
	}
	// Health predictions must stay in a sane range.
	for _, s := range ds.Samples[:50] {
		h := rt.Predict(s.X)
		if h < -1.2 || h > 1.2 || math.IsNaN(h) {
			t.Fatalf("health prediction %v out of range", h)
		}
	}
}

func TestEndToEndNeuralNetwork(t *testing.T) {
	_, ds := buildSmallDataset(t, 7)
	net, err := TrainNeuralNetwork(ds, NetworkConfig{Hidden: 8, Epochs: 20, Patience: 5})
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for _, s := range ds.Samples {
		total++
		if (net.Predict(s.X) < 0) == s.Failed {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Errorf("training accuracy = %.2f, want ≥ 0.8", acc)
	}
}

func TestSelectFeaturesFacade(t *testing.T) {
	candidates := FeatureSet{CriticalFeatures()[0], CriticalFeatures()[1]}
	good := [][]float64{{100, 97}, {101, 96}, {99, 98}, {100, 97}}
	failed := [][]float64{{70, 97}, {72, 96}, {69, 98}, {71, 97}}
	sel, err := SelectFeatures(candidates, good, failed, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != candidates[0] {
		t.Errorf("selected %v, want the separating feature", sel)
	}
	if _, err := SelectFeatures(nil, nil, nil, nil, 1); err == nil {
		t.Error("empty candidates accepted")
	}
}

func TestReliabilityFacade(t *testing.T) {
	sata := DriveParams{MTTFHours: 1390000, MTTRHours: 8}
	ct := PredictionParams{FDR: 0.9549, TIAHours: 355}
	years := SingleDriveMTTDL(sata, ct) / 8760
	if math.Abs(years-2398.92) > 15 {
		t.Errorf("Eq.7 MTTDL = %.2f years, want ≈ 2398.92 (paper Table VI)", years)
	}
	r6, err := RAID6MTTDL(50, sata, ct)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := RAID5MTTDL(50, sata, ct)
	if err != nil {
		t.Fatal(err)
	}
	if r6 <= r5 {
		t.Errorf("RAID-6 MTTDL %.3g should exceed RAID-5 %.3g", r6, r5)
	}
}

func TestDetectorConstructors(t *testing.T) {
	model := firstFeatureModel{}
	v, err := NewVotingDetector(model, 5, 0)
	if err != nil || v.Voters != 5 {
		t.Fatalf("valid voting detector rejected: %v", err)
	}
	m, err := NewMeanThresholdDetector(model, 3, -0.3)
	if err != nil || m.Voters != 3 {
		t.Fatalf("valid mean detector rejected: %v", err)
	}
	cases := []struct {
		name      string
		model     Predictor
		voters    int
		threshold float64
	}{
		{"nil model", nil, 5, 0},
		{"zero window", model, 0, 0},
		{"negative window", model, -1, 0},
		{"threshold above 1", model, 5, 1.5},
		{"threshold below -1", model, 5, -2},
		{"NaN threshold", model, 5, math.NaN()},
	}
	for _, c := range cases {
		if _, err := NewVotingDetector(c.model, c.voters, c.threshold); err == nil {
			t.Errorf("voting: %s accepted", c.name)
		}
		if _, err := NewMeanThresholdDetector(c.model, c.voters, c.threshold); err == nil {
			t.Errorf("mean-threshold: %s accepted", c.name)
		}
	}
}

// TestFleetSweepFacade drives the sweep surface end to end through the
// facade: quantize the evaluation fleet with QuantizeFleet, sweep it
// from float and from code rows, and require outcomes identical to the
// per-row binned reference (Predict, then the voting window) — the
// invariant the sweep engine is built around.
func TestFleetSweepFacade(t *testing.T) {
	fleet, ds := buildSmallDataset(t, 8)
	tree, err := TrainClassificationTree(ds, TreeParams{LossFA: 10})
	if err != nil {
		t.Fatal(err)
	}
	x, _, _ := ds.XMatrix()
	bm, err := BinFeatureMatrix(x, 255)
	if err != nil {
		t.Fatal(err)
	}
	model, err := CompileModelBinned(tree, bm)
	if err != nil {
		t.Fatal(err)
	}
	var series []Series
	var failHours []int
	for _, d := range fleet.Drives() {
		trace := fleet.Trace(d.Index)
		series = append(series, ExtractSeries(CriticalFeatures(), trace, 0, len(trace)))
		fh := -1
		if d.Failed {
			fh = d.FailHour
		}
		failHours = append(failHours, fh)
	}
	var fc FleetCodes
	binned, err := QuantizeFleet(bm, series, &fc)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Outcome, len(binned))
	for i, s := range binned {
		scores := make([]float64, len(s.Codes))
		for j, row := range s.Codes {
			scores[j] = model.Predict(row)
		}
		idx, _ := detect.VoteAlarm(scores, 11, 0)
		want[i] = detect.AlarmOutcome(s.Hours, idx, failHours[i])
	}
	pf, err := PrepareSweep(bm, series, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(model, pf, failHours, SweepConfig{Voters: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outcomes, want) {
		t.Fatal("RunSweep outcomes over PrepareSweep diverged from the per-row reference")
	}
	if res.Total.Drives != int64(len(series)) {
		t.Fatalf("sweep scanned %d drives, fleet has %d", res.Total.Drives, len(series))
	}
	// The already-quantized form must land on the same outcomes.
	pf, err = PrepareSweepBinned(binned, 4)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunSweep(model, pf, failHours, SweepConfig{Voters: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Outcomes, want) {
		t.Fatal("RunSweep outcomes over PrepareSweepBinned diverged from the per-row reference")
	}
}
