package detect

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
)

// binnedDetectFixture trains a classifier on dyadic data (≤ 32 distinct
// values per feature, so a 32-bin matrix is singleton-binned and the
// binned compile is Exact), and builds a deterministic set of drive
// series from bin-representative rows.
func binnedDetectFixture(t *testing.T, seed int64) (*cart.CompiledTree, *cart.BinnedTree, *dataset.BinnedMatrix, []Series) {
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
	ct := tree.Compile()
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := ct.CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if !bt.Exact {
		t.Fatal("fixture compile should be Exact")
	}
	series := make([]Series, 20)
	for d := range series {
		m := 50 + rng.Intn(1200)
		s := Series{X: make([][]float64, m), Hours: make([]int, m)}
		for i := range s.X {
			s.X[i] = x[rng.Intn(len(x))]
			s.Hours[i] = i * 8
		}
		series[d] = s
	}
	return ct, bt, bm, series
}

// quantizeAll maps every fixture series onto the matrix's code space.
func quantizeAll(t *testing.T, bm *dataset.BinnedMatrix, series []Series) []BinnedSeries {
	t.Helper()
	out := make([]BinnedSeries, len(series))
	for i, s := range series {
		bs, err := QuantizeSeries(bm, s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = bs
	}
	return out
}

// binnedAlarm is the code-space reference scan: score every quantized
// row with the binned model's per-row Predict, then run the shared window
// sweep over the scores — the semantics the fleet sweep reproduces.
func binnedAlarm(bt *cart.BinnedTree, codes [][]uint8, voters int, threshold float64, mean bool) int {
	scores := make([]float64, len(codes))
	for i, row := range codes {
		scores[i] = bt.Predict(row)
	}
	if mean {
		idx, _ := MeanAlarm(scores, voters, threshold)
		return idx
	}
	idx, _ := VoteAlarm(scores, voters, threshold)
	return idx
}

// TestBinnedDetectorsMatchFloat checks that binned scoring followed by
// the shared window sweeps alarms at exactly the float detectors' index
// on quantized input — the detect-level half of the cross-path
// equivalence contract.
func TestBinnedDetectorsMatchFloat(t *testing.T) {
	ct, bt, bm, series := binnedDetectFixture(t, 51)
	binned := quantizeAll(t, bm, series)
	for _, voters := range []int{1, 3, 7, 16} {
		fv := &Voting{Model: ct, Voters: voters}
		fm := &MeanThreshold{Model: ct, Voters: voters, Threshold: -0.1}
		for i := range series {
			if want, got := fv.Detect(series[i].X), binnedAlarm(bt, binned[i].Codes, voters, 0, false); want != got {
				t.Fatalf("voters=%d drive %d: Voting %d vs binned %d", voters, i, want, got)
			}
			if want, got := fm.Detect(series[i].X), binnedAlarm(bt, binned[i].Codes, voters, -0.1, true); want != got {
				t.Fatalf("voters=%d drive %d: MeanThreshold %d vs binned %d", voters, i, want, got)
			}
		}
	}
}

// TestMultiVotingBinnedMatchesFloat checks the multi-window sweep across
// worker counts against the code-space reference: on quantized input,
// every window's alarm must equal binned per-row scoring followed by the
// shared vote sweep, independent of Workers.
func TestMultiVotingBinnedMatchesFloat(t *testing.T) {
	ct, bt, bm, series := binnedDetectFixture(t, 77)
	binned := quantizeAll(t, bm, series)
	voters := []int{1, 2, 5, 9, 32}
	for _, workers := range []int{0, 1, 3} {
		mv := &MultiVoting{Model: ct, Voters: voters, Workers: workers}
		for i := range series {
			got := mv.DetectAll(series[i].X)
			if len(got) != len(voters) {
				t.Fatalf("workers=%d drive %d: got %d alarms, want %d", workers, i, len(got), len(voters))
			}
			for k, n := range voters {
				if want := binnedAlarm(bt, binned[i].Codes, n, 0, false); got[k] != want {
					t.Fatalf("workers=%d drive %d window %d: float %d vs binned %d",
						workers, i, n, got[k], want)
				}
			}
		}
		if got := mv.DetectAll(nil); len(got) != len(voters) {
			t.Fatalf("empty series: got %d alarms, want %d", len(got), len(voters))
		}
	}
	empty := &MultiVoting{Model: ct}
	if got := empty.DetectAll(series[0].X); len(got) != 0 {
		t.Fatalf("no windows: got %v", got)
	}
	// ScanAll mirrors the code-space conversion of indexes to outcomes.
	failHour := series[0].Hours[len(series[0].Hours)-1]
	fo := (&MultiVoting{Model: ct, Voters: voters, Workers: 1}).ScanAll(series[0], failHour)
	for k, n := range voters {
		bo := AlarmOutcome(binned[0].Hours, binnedAlarm(bt, binned[0].Codes, n, 0, false), failHour)
		if fo[k] != bo {
			t.Fatalf("ScanAll window %d: float %+v vs binned %+v", n, fo[k], bo)
		}
	}
}

// TestScanBatchBinnedMatchesFloat checks the fleet path: float ScanBatch
// outcomes equal the code-space reference outcome (binned per-row
// scoring, the vote sweep, AlarmOutcome) for every drive, at every
// worker count.
func TestScanBatchBinnedMatchesFloat(t *testing.T) {
	ct, bt, bm, series := binnedDetectFixture(t, 90)
	binned := quantizeAll(t, bm, series)
	failHours := make([]int, len(series))
	for i := range failHours {
		failHours[i] = -1
		if i%3 == 0 {
			failHours[i] = series[i].Hours[len(series[i].Hours)-1] + 24
		}
	}
	want := make([]Outcome, len(binned))
	for i, bs := range binned {
		want[i] = AlarmOutcome(bs.Hours, binnedAlarm(bt, bs.Codes, 5, 0, false), failHours[i])
	}
	for _, workers := range []int{0, 1, 4, 64} {
		got := ScanBatch(&Voting{Model: ct, Voters: 5}, series, failHours, workers)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d drive %d: binned %+v vs float %+v", workers, i, want[i], got[i])
			}
		}
	}
	// nil failHours treats every drive as good.
	out := ScanBatch(&Voting{Model: ct, Voters: 5}, series, nil, 2)
	for i, o := range out {
		if o.Alarmed && o.LeadHours != -1 {
			t.Fatalf("drive %d: good drive got lead hours %d", i, o.LeadHours)
		}
	}
}

// TestQuantizeSeries pins the metadata carry-over and the ragged-row
// error path.
func TestQuantizeSeries(t *testing.T) {
	bm, err := dataset.BinMatrix([][]float64{{1, 2}, {3, 4}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Series{X: [][]float64{{1, 2}, {3, 4}}, Hours: []int{8, 16}, Dropped: 3}
	bs, err := QuantizeSeries(bm, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Codes) != 2 || bs.Dropped != 3 || bs.Hours[1] != 16 {
		t.Fatalf("QuantizeSeries lost metadata: %+v", bs)
	}
	if _, err := QuantizeSeries(bm, Series{X: [][]float64{{1}}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}
