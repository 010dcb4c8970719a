package detect

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// alarmScores builds a deterministic score sequence with fail clusters
// and injected NaN, exercising the sweeps' compaction and bulk-skip.
func alarmScores(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.NormFloat64()*0.3 + 0.5
		if rng.Float64() < 0.15 {
			scores[i] = -0.8 + rng.NormFloat64()*0.2
		}
		if rng.Float64() < 0.05 {
			scores[i] = math.NaN()
		}
	}
	return scores
}

// TestVoteAlarmMatchesDetector holds the exported sweeps and the
// detectors on the same scores against the brute-force rules over the
// NaN-compacted series (mapped back to series coordinates), on series
// long enough for long bulk-skip runs; the excluded count must equal the
// NaN count in the swept prefix.
func TestVoteAlarmMatchesDetector(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, n := range []int{0, 1, 5, 40, 512 + 77, 3000} {
			scores := alarmScores(seed, n)
			valid, orig := compactNaN(scores)
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = []float64{scores[i]}
			}
			for _, voters := range []int{1, 3, 11} {
				for _, thr := range []float64{0, -0.3} {
					want := bruteVoting(valid, voters, thr)
					if want >= 0 {
						want = orig[want]
					}
					vIdx := (&Voting{Model: scoreModel{}, Voters: voters, Threshold: thr}).Detect(xs)
					gotIdx, gotExcl := VoteAlarm(append([]float64(nil), scores...), voters, thr)
					if gotIdx != want || vIdx != want {
						t.Fatalf("seed=%d n=%d voters=%d thr=%v: VoteAlarm %d, Voting %d, brute force %d",
							seed, n, voters, thr, gotIdx, vIdx, want)
					}
					checkExcluded(t, scores, gotIdx, gotExcl)

					want = bruteMean(valid, voters, thr)
					if want >= 0 {
						want = orig[want]
					}
					mIdx := (&MeanThreshold{Model: scoreModel{}, Voters: voters, Threshold: thr}).Detect(xs)
					gotIdx, gotExcl = MeanAlarm(append([]float64(nil), scores...), voters, thr)
					if gotIdx != want || mIdx != want {
						t.Fatalf("seed=%d n=%d voters=%d thr=%v: MeanAlarm %d, MeanThreshold %d, brute force %d",
							seed, n, voters, thr, gotIdx, mIdx, want)
					}
					checkExcluded(t, scores, gotIdx, gotExcl)
				}
			}
		}
	}
	// voters < 1 behaves as 1, as the detectors' Detect does.
	if idx, _ := VoteAlarm([]float64{-1}, 0, 0); idx != 0 {
		t.Fatalf("voters=0: VoteAlarm = %d, want 0", idx)
	}
}

// checkExcluded verifies the excluded count equals the NaN count in the
// swept prefix (through the alarm, or the whole series without one).
func checkExcluded(t *testing.T, scores []float64, idx, excluded int) {
	t.Helper()
	hi := len(scores)
	if idx >= 0 {
		hi = idx + 1
	}
	want := 0
	for _, s := range scores[:hi] {
		if math.IsNaN(s) {
			want++
		}
	}
	if excluded != want {
		t.Fatalf("excluded = %d, want %d (idx %d)", excluded, want, idx)
	}
}

// TestQuantizeFleet checks the pooled batch quantizer against the
// per-series path, row for row, metadata included.
func TestQuantizeFleet(t *testing.T) {
	_, _, bm, series := binnedDetectFixture(t, 33)
	series[2].Dropped = 7
	series[4].X = nil // empty drive stays a drive
	series[4].Hours = nil
	want := quantizeAll(t, bm, series)
	var fc FleetCodes
	got, err := QuantizeFleet(bm, series, &fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d series, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Dropped != want[i].Dropped || !reflect.DeepEqual(got[i].Hours, want[i].Hours) {
			t.Fatalf("drive %d: metadata diverged", i)
		}
		if len(got[i].Codes) != len(want[i].Codes) {
			t.Fatalf("drive %d: %d rows, want %d", i, len(got[i].Codes), len(want[i].Codes))
		}
		for r := range want[i].Codes {
			if !reflect.DeepEqual(got[i].Codes[r], want[i].Codes[r]) {
				t.Fatalf("drive %d row %d: codes diverged", i, r)
			}
		}
	}
	// Error paths.
	if _, err := QuantizeFleet(nil, series, &fc); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := QuantizeFleet(bm, series, nil); err == nil {
		t.Error("nil FleetCodes accepted")
	}
	ragged := []Series{{X: [][]float64{{1}}}}
	if _, err := QuantizeFleet(bm, ragged, &fc); err == nil {
		t.Error("short row accepted")
	}
}

// TestQuantizeFleetNoAllocSteadyState is the satellite's AllocsPerRun
// assertion: once the FleetCodes backing has grown to the fleet size,
// re-quantizing allocates nothing.
func TestQuantizeFleetNoAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	_, _, bm, series := binnedDetectFixture(t, 44)
	var fc FleetCodes
	if _, err := QuantizeFleet(bm, series, &fc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := QuantizeFleet(bm, series, &fc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state QuantizeFleet allocated %.0f times per run", allocs)
	}
}

// TestScanBatchStrideSeams pins the strided drive pickup at sizes around
// the stride boundary: results must equal the serial scan for every
// worker count, including fleets not divisible by the stride.
func TestScanBatchStrideSeams(t *testing.T) {
	ct, _, _, series := binnedDetectFixture(t, 55)
	det := &Voting{Model: ct, Voters: 3}
	for _, n := range []int{2, scanStride - 1, scanStride, scanStride + 1, 2*scanStride + 3, len(series)} {
		want := ScanBatch(det, series[:n], nil, 1)
		for _, workers := range []int{2, 3, 64} {
			got := ScanBatch(det, series[:n], nil, workers)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("n=%d workers=%d: outcomes diverged from serial scan", n, workers)
			}
		}
	}
}
