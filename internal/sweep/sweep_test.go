package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
)

// sweepFixture trains a small exact-compiled classifier and builds a
// fleet of series (with fail hours and dropped-record counts) on its
// feature space, mirroring the detect package's binned fixture. Drive
// lengths are drawn in [0, maxSamples], so small maxima also exercise
// empty drives.
func sweepFixture(t testing.TB, seed int64, drives, maxSamples int) (*cart.BinnedTree, *dataset.BinnedMatrix, []detect.Series, []detect.BinnedSeries, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, nf = 800, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			row[f] = math.Floor(rng.Float64()*32) / 32
		}
		x[i] = row
		y[i] = 1
		if row[0]-row[1] > 0.2 {
			y[i] = -1
		}
		if rng.Float64() < 0.08 {
			y[i] = -y[i]
		}
	}
	tree, err := cart.TrainClassifier(x, y, nil, cart.Params{LossFA: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := tree.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]detect.Series, drives)
	failHours := make([]int, drives)
	binned := make([]detect.BinnedSeries, drives)
	for d := range series {
		m := rng.Intn(maxSamples + 1)
		s := detect.Series{X: make([][]float64, m), Hours: make([]int, m)}
		for i := range s.X {
			s.X[i] = x[rng.Intn(len(x))]
			s.Hours[i] = i * 8
		}
		if rng.Float64() < 0.3 {
			s.Dropped = 1 + rng.Intn(4)
		}
		series[d] = s
		failHours[d] = -1
		if m > 0 && rng.Float64() < 0.25 {
			failHours[d] = (m - 1) * 8
		}
		bs, err := detect.QuantizeSeries(bm, s)
		if err != nil {
			t.Fatal(err)
		}
		binned[d] = bs
	}
	return bt, bm, series, binned, failHours
}

// nanLeaves returns a copy of bt whose every third leaf scores NaN, so
// sweeps over it exercise the window sweeps' NaN exclusion. The copy
// shares bt's routing; only the leaf payloads differ, and they differ
// identically for Predict and PredictTiledRange.
func nanLeaves(bt *cart.BinnedTree) *cart.BinnedTree {
	nt := *bt
	nt.Value = append([]float64(nil), bt.Value...)
	leaves := 0
	for i, f := range nt.Feature {
		if f < 0 {
			if leaves%3 == 0 {
				nt.Value[i] = math.NaN()
			}
			leaves++
		}
	}
	return &nt
}

// reference is the sweep's independent reference: every code row scored
// with the per-row BinnedTree.Predict, the shared window sweep
// (detect.VoteAlarm or detect.MeanAlarm) run over each drive's scores,
// and the alarm index converted by detect.AlarmOutcome — the semantics
// the repository benchmark checks the sweep against. It also returns the
// deterministic stats the sweep must report.
func reference(bt *cart.BinnedTree, binned []detect.BinnedSeries, failHours []int, cfg Config) ([]detect.Outcome, Stats) {
	out := make([]detect.Outcome, len(binned))
	var st Stats
	for d, s := range binned {
		scores := make([]float64, len(s.Codes))
		for i, row := range s.Codes {
			scores[i] = bt.Predict(row)
		}
		var idx, excl int
		if cfg.Mean {
			idx, excl = detect.MeanAlarm(scores, cfg.Voters, cfg.Threshold)
		} else {
			idx, excl = detect.VoteAlarm(scores, cfg.Voters, cfg.Threshold)
		}
		fh := -1
		if failHours != nil {
			fh = failHours[d]
		}
		out[d] = detect.AlarmOutcome(s.Hours, idx, fh)
		st.Drives++
		st.Samples += int64(len(s.Codes))
		st.NaNExcluded += int64(excl + s.Dropped)
		if out[d].Alarmed {
			st.Alarms++
		}
	}
	return out, st
}

// sweepBinned packs an already-quantized fleet at the default shard
// count and sweeps it once.
func sweepBinned(t *testing.T, bt *cart.BinnedTree, binned []detect.BinnedSeries, failHours []int, cfg Config) *Result {
	t.Helper()
	fleet, err := PrepareBinned(binned, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bt, fleet, failHours, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireReference fails unless res carries exactly the reference
// outcomes and deterministic stats.
func requireReference(t *testing.T, name string, res *Result, bt *cart.BinnedTree,
	binned []detect.BinnedSeries, failHours []int, cfg Config) {
	t.Helper()
	want, st := reference(bt, binned, failHours, cfg)
	if len(res.Outcomes) != len(want) {
		t.Fatalf("%s: sweep returned %d outcomes, reference %d", name, len(res.Outcomes), len(want))
	}
	for d := range want {
		if res.Outcomes[d] != want[d] {
			t.Fatalf("%s: drive %d: sweep %+v, reference %+v", name, d, res.Outcomes[d], want[d])
		}
	}
	if res.Total.Canon() != st {
		t.Fatalf("%s: stats %+v, reference %+v", name, res.Total.Canon(), st)
	}
}

// TestSweepMatchesDirectScan is the engine's correctness anchor: for
// both window sweeps, either preparation path, models with and without
// NaN scores, and fleets of 1, 7 and 4095 drives, sweep outcomes and
// stats must equal the per-row reference, drive for drive.
func TestSweepMatchesDirectScan(t *testing.T) {
	for _, drives := range []int{1, 7, 4095} {
		bt, bm, series, binned, failHours := sweepFixture(t, int64(7+drives), drives, 60)
		fromFloat, err := Prepare(bm, series, 0)
		if err != nil {
			t.Fatal(err)
		}
		fromCodes, err := PrepareBinned(binned, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []*cart.BinnedTree{bt, nanLeaves(bt)} {
			for _, voters := range []int{1, 3, 11} {
				for _, cfg := range []Config{
					{Voters: voters, Workers: 2},
					{Voters: voters, Threshold: -0.1, Mean: true, Workers: 2},
				} {
					for prep, fleet := range []*Fleet{fromFloat, fromCodes} {
						res, err := Run(model, fleet, failHours, cfg)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("drives=%d voters=%d mean=%v prepared-from-codes=%v nan=%v",
							drives, voters, cfg.Mean, prep == 1, model != bt)
						requireReference(t, name, res, model, binned, failHours, cfg)
					}
				}
			}
		}
	}
}

// codePredictor scores a float row by quantizing it and walking the
// binned tree: a float detect.Predictor over the sweep's own model.
type codePredictor struct {
	bm *dataset.BinnedMatrix
	bt *cart.BinnedTree
}

func (p codePredictor) Predict(x []float64) float64 {
	codes := make([]uint8, len(x))
	p.bm.QuantizeRow(x, codes)
	return p.bt.Predict(codes)
}

// TestSweepDelegationEndToEnd drives a fleet of 4101 drives end to end,
// as hddpred evaluate -sweep does (float series through Prepare, then
// Run), and checks the outcomes against the per-drive float detector
// path, detect.ScanBatch with Voting.
func TestSweepDelegationEndToEnd(t *testing.T) {
	bt, bm, series, _, failHours := sweepFixture(t, 19, 30, 40)
	big := make([]detect.Series, 4101)
	bigFail := make([]int, len(big))
	for i := range big {
		big[i] = series[i%len(series)]
		bigFail[i] = failHours[i%len(series)]
		if i%7 == 0 && len(big[i].Hours) > 0 {
			bigFail[i] = big[i].Hours[len(big[i].Hours)-1]
		}
	}
	fleet, err := Prepare(bm, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bt, fleet, bigFail, Config{Voters: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := detect.ScanBatch(&detect.Voting{Model: codePredictor{bm, bt}, Voters: 3}, big, bigFail, 2)
	if !reflect.DeepEqual(res.Outcomes, want) {
		t.Fatal("fleet sweep diverged from the per-drive float scan")
	}
}

// TestSweepDeterminismMatrix pins the collection contract: outcomes and
// merged stats (Steals aside) are byte-identical for every worker count
// and, outcomes-wise, every shard count; per-shard stats are identical
// for every worker count at a fixed shard count.
func TestSweepDeterminismMatrix(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 11, 80, 700)
	var refOut []detect.Outcome
	var refTotal Stats
	for _, shards := range []int{1, 4, 16} {
		fleet, err := PrepareBinned(binned, shards)
		if err != nil {
			t.Fatal(err)
		}
		var refShards []Stats
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := Run(bt, fleet, failHours, Config{Voters: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Shards) != shards {
				t.Fatalf("shards=%d: got %d stat groups", shards, len(res.Shards))
			}
			if refOut == nil {
				refOut = res.Outcomes
				refTotal = res.Total.Canon()
			}
			if !reflect.DeepEqual(res.Outcomes, refOut) {
				t.Fatalf("shards=%d workers=%d: outcomes diverged from reference", shards, workers)
			}
			if res.Total.Canon() != refTotal {
				t.Fatalf("shards=%d workers=%d: total stats %+v, want %+v",
					shards, workers, res.Total.Canon(), refTotal)
			}
			snap := make([]Stats, len(res.Shards))
			for i, s := range res.Shards {
				snap[i] = s.Canon()
			}
			if refShards == nil {
				refShards = snap
			} else if !reflect.DeepEqual(snap, refShards) {
				t.Fatalf("shards=%d workers=%d: per-shard stats moved across worker counts", shards, workers)
			}
		}
	}
}

// TestSweepStats checks the merged counters against ground truth the
// test can compute independently: Drives, Samples and the upstream
// dropped-record counts from the fleet itself, Alarms from the outcomes,
// and NaNExcluded as dropped records plus the NaN scores the reference
// sweep skipped.
func TestSweepStats(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 13, 50, 600)
	model := nanLeaves(bt)
	cfg := Config{Voters: 3, Workers: 2}
	res := sweepBinned(t, model, binned, failHours, cfg)
	var samples, dropped, alarms int64
	for i := range binned {
		samples += int64(len(binned[i].Codes))
		dropped += int64(binned[i].Dropped)
	}
	for _, o := range res.Outcomes {
		if o.Alarmed {
			alarms++
		}
	}
	_, st := reference(model, binned, failHours, cfg)
	if res.Total.Drives != int64(len(binned)) {
		t.Fatalf("Drives = %d, want %d", res.Total.Drives, len(binned))
	}
	if res.Total.Samples != samples {
		t.Fatalf("Samples = %d, want %d", res.Total.Samples, samples)
	}
	if res.Total.NaNExcluded != st.NaNExcluded || st.NaNExcluded <= dropped {
		t.Fatalf("NaNExcluded = %d, reference %d (dropped %d; NaN scores must add to it)",
			res.Total.NaNExcluded, st.NaNExcluded, dropped)
	}
	if res.Total.Alarms != alarms {
		t.Fatalf("Alarms = %d, want %d (from outcomes)", res.Total.Alarms, alarms)
	}
	if alarms == 0 {
		t.Fatal("fixture produced no alarms; stats check is vacuous")
	}
	// The fixture model never scores NaN, so there NaNExcluded is exactly
	// the dropped-record count.
	if plain := sweepBinned(t, bt, binned, failHours, cfg); plain.Total.NaNExcluded != dropped {
		t.Fatalf("NaN-free NaNExcluded = %d, want %d", plain.Total.NaNExcluded, dropped)
	}
	// One worker on one shard never leaves home.
	fleet, err := PrepareBinned(binned, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(bt, fleet, failHours, Config{Voters: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Total.Steals != 0 {
		t.Fatalf("1 worker × 1 shard recorded %d steals", one.Total.Steals)
	}
}

// TestSweepEdgeCases: empty fleets, all-empty drives, a single drive, and
// empty drives mixed into a NaN-scoring fleet must all produce
// well-formed results equal to the reference.
func TestSweepEdgeCases(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 23, 8, 120)
	res := sweepBinned(t, bt, nil, nil, Config{Voters: 3})
	if len(res.Outcomes) != 0 || res.Total != (Stats{}) {
		t.Fatalf("empty fleet: %d outcomes, total %+v", len(res.Outcomes), res.Total)
	}
	empty := make([]detect.BinnedSeries, 5)
	res = sweepBinned(t, bt, empty, nil, Config{Voters: 3})
	if len(res.Outcomes) != 5 || res.Total.Drives != 5 || res.Total.Samples != 0 {
		t.Fatalf("all-empty drives: %d outcomes, total %+v", len(res.Outcomes), res.Total)
	}
	for i, o := range res.Outcomes {
		if o.Alarmed {
			t.Fatalf("empty drive %d alarmed", i)
		}
	}
	single := Config{Voters: 3}
	one := sweepBinned(t, bt, binned[:1], failHours[:1], single)
	requireReference(t, "single drive", one, bt, binned[:1], failHours[:1], single)

	mixed := append([]detect.BinnedSeries{{}}, binned...)
	mixed = append(mixed, detect.BinnedSeries{Dropped: 2})
	mixedFail := append(append([]int{-1}, failHours...), -1)
	model := nanLeaves(bt)
	for _, cfg := range []Config{{Voters: 11}, {Voters: 11, Threshold: -0.1, Mean: true}} {
		res := sweepBinned(t, model, mixed, mixedFail, cfg)
		requireReference(t, fmt.Sprintf("mixed mean=%v", cfg.Mean), res, model, mixed, mixedFail, cfg)
	}
}

// TestFleetReuse: a prepared Fleet serves repeated Runs — different
// configs in between must not leak state into a repeat of the first.
func TestFleetReuse(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 29, 40, 500)
	fleet, err := PrepareBinned(binned, 4)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for i := range binned {
		rows += len(binned[i].Codes)
	}
	if fleet.NumDrives() != len(binned) || fleet.NumRows() != rows || fleet.NumShards() != 4 {
		t.Fatalf("fleet accessors: drives=%d rows=%d shards=%d",
			fleet.NumDrives(), fleet.NumRows(), fleet.NumShards())
	}
	first, err := Run(bt, fleet, failHours, Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(bt, fleet, failHours, Config{Voters: 9, Threshold: -0.1, Mean: true}); err != nil {
		t.Fatal(err)
	}
	again, err := Run(bt, fleet, failHours, Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Outcomes, first.Outcomes) || again.Total.Canon() != first.Total.Canon() {
		t.Fatal("repeat Run on a reused Fleet diverged from the first")
	}
}

// TestSweepErrors walks the validation surface of Prepare/PrepareBinned
// and Run.
func TestSweepErrors(t *testing.T) {
	bt, bm, series, binned, failHours := sweepFixture(t, 31, 6, 50)
	if _, err := Prepare(nil, series, 0); err == nil {
		t.Error("Prepare accepted a nil matrix")
	}
	short := []detect.Series{{X: [][]float64{{1}}}}
	if _, err := Prepare(bm, short, 0); err == nil {
		t.Error("Prepare accepted a short feature row")
	}
	if _, err := Prepare(bm, series, -1); err == nil {
		t.Error("Prepare accepted a negative shard count")
	}
	ragged := []detect.BinnedSeries{{Codes: [][]uint8{{1, 2}, {3}}}}
	if _, err := PrepareBinned(ragged, 0); err == nil {
		t.Error("PrepareBinned accepted ragged code rows")
	}
	fleet, err := PrepareBinned(binned, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, fleet, failHours, Config{}); err == nil {
		t.Error("Run accepted a nil model")
	}
	if _, err := Run(bt, nil, failHours, Config{}); err == nil {
		t.Error("Run accepted a nil fleet")
	}
	if _, err := Run(bt, fleet, failHours[:3], Config{}); err == nil {
		t.Error("Run accepted a mis-sized failHours")
	}
	if _, err := Run(bt, fleet, failHours, Config{Threshold: math.NaN()}); err == nil {
		t.Error("Run accepted a NaN threshold")
	}
	if _, err := Run(bt, fleet, failHours, Config{Threshold: 1.5}); err == nil {
		t.Error("Run accepted a threshold outside [-1, 1]")
	}
	if _, err := Run(bt, fleet, failHours, Config{Workers: -2}); err == nil {
		t.Error("Run accepted negative workers")
	}
}
