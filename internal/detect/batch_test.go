package detect

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomSeries builds a deterministic noisy score sequence.
func randomSeries(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64()}
	}
	return xs
}

// seamSeries builds a healthy series of ~1.5k samples with one fail
// cluster at a seed-dependent position, so the first alarm lands
// anywhere along it, inside the bulk skip's healthy runs or not.
func seamSeries(seed int64) (xs [][]float64, scores []float64) {
	xs = randomSeries(seed, 3*512+int(seed))
	at := int(seed*157) % (len(xs) - 20)
	scores = make([]float64, len(xs))
	for i, x := range xs {
		x[0] = 2 + 0.3*x[0]
		if i >= at && i < at+20 {
			x[0] -= 3
		}
		scores[i] = x[0]
	}
	return xs, scores
}

// TestVotingBatchMatchesStreaming checks the detector, which scores the
// whole series and then sweeps it, against the brute-force rule.
func TestVotingBatchMatchesStreaming(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		xs, scores := seamSeries(seed)
		for _, n := range []int{0, 1, 3, 7, 12} {
			got := (&Voting{Model: scoreModel{}, Voters: n, Threshold: 0.1}).Detect(xs)
			if want := bruteVoting(scores, n, 0.1); got != want || got < 0 {
				t.Fatalf("seed %d N=%d: detector %d vs brute force %d", seed, n, got, want)
			}
		}
	}
}

// TestMeanThresholdBatchMatchesStreaming is the same check for the
// health-degree detector.
func TestMeanThresholdBatchMatchesStreaming(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		xs, scores := seamSeries(seed)
		for _, n := range []int{0, 1, 4, 9} {
			got := (&MeanThreshold{Model: scoreModel{}, Voters: n, Threshold: -0.2}).Detect(xs)
			if want := bruteMean(scores, n, -0.2); got != want || got < 0 {
				t.Fatalf("seed %d N=%d: detector %d vs brute force %d", seed, n, got, want)
			}
		}
	}
}

// TestMultiVotingWorkersDeterministic checks that DetectAll's window
// sizes do not see each other's sweeps: each runs on its own copy of the
// scores (a sweep compacts NaN away in place), so any order of Voters
// gives the single detectors' alarms.
func TestMultiVotingWorkersDeterministic(t *testing.T) {
	xs := randomSeries(5, 785)
	for i := 3; i < len(xs); i += 7 {
		xs[i][0] = math.NaN()
	}
	voters := []int{1, 3, 5, 9, 15}
	got := (&MultiVoting{Model: scoreModel{}, Voters: voters, Threshold: 0.05}).DetectAll(xs)
	rev := (&MultiVoting{Model: scoreModel{}, Voters: []int{15, 9, 5, 3, 1}, Threshold: 0.05}).DetectAll(xs)
	for i, n := range voters {
		want := (&Voting{Model: scoreModel{}, Voters: n, Threshold: 0.05}).Detect(xs)
		if got[i] != want || rev[len(voters)-1-i] != want {
			t.Fatalf("N=%d: DetectAll %d, reversed %d, Voting %d", n, got[i], rev[len(voters)-1-i], want)
		}
	}
}

func TestScanBatchDeterministic(t *testing.T) {
	series := make([]Series, 60)
	failHours := make([]int, len(series))
	for i := range series {
		xs := randomSeries(int64(100+i), 40+i)
		for _, x := range xs {
			x[0] += 2 // healthy baseline: scores well above the vote cut
		}
		failHours[i] = -1
		if i%3 == 0 {
			// Failing drive: a degrading tail that trips the vote window.
			for j := len(xs) - 4; j < len(xs); j++ {
				xs[j][0] = -1
			}
			failHours[i] = 6 * len(xs)
		}
		hours := make([]int, len(xs))
		for h := range hours {
			hours[h] = 6 * h
		}
		series[i] = Series{X: xs, Hours: hours}
	}
	det := &Voting{Model: scoreModel{}, Voters: 3, Threshold: 0}
	base := ScanBatch(det, series, failHours, 1)
	alarmed := 0
	for _, o := range base {
		if o.Alarmed {
			alarmed++
		}
	}
	if alarmed == 0 || alarmed == len(base) {
		t.Fatalf("degenerate fixture: %d/%d alarms", alarmed, len(base))
	}
	for _, workers := range []int{0, 2, 4, 8} {
		if got := ScanBatch(det, series, failHours, workers); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: ScanBatch diverged", workers)
		}
	}
	// nil failHours treats every drive as good.
	good := ScanBatch(det, series, nil, 4)
	for i, o := range good {
		if o.LeadHours != -1 {
			t.Fatalf("drive %d: nil failHours produced LeadHours %d", i, o.LeadHours)
		}
	}
}

// TestScoreChunkNoAlloc proves the //hddlint:noalloc contract for the
// chunk scorer: with a caller-supplied dst it scores without allocating.
func TestScoreChunkNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	xs := randomSeries(5, 1024)
	dst := make([]float64, len(xs))
	allocs := testing.AllocsPerRun(50, func() { scoreChunk(scoreModel{}, xs, dst) })
	if allocs != 0 {
		t.Fatalf("scoreChunk allocated %.0f times per run", allocs)
	}
}
