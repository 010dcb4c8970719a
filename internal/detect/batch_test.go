package detect

import (
	"math/rand"
	"reflect"
	"testing"
)

// batchScoreModel is scoreModel plus the batch path, so tests can compare
// the streaming and batch detector code against the same scores.
type batchScoreModel struct{ scoreModel }

func (m batchScoreModel) PredictBatch(xs [][]float64, dst []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = m.Predict(x)
	}
	return dst
}

var _ BatchPredictor = batchScoreModel{}

// randomSeries builds a deterministic noisy score sequence.
func randomSeries(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64()}
	}
	return xs
}

func TestVotingBatchMatchesStreaming(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		xs := randomSeries(seed, 120)
		for _, n := range []int{0, 1, 3, 7, 12} {
			stream := &Voting{Model: scoreModel{}, Voters: n, Threshold: 0.1}
			batch := &Voting{Model: batchScoreModel{}, Voters: n, Threshold: 0.1}
			if a, b := stream.Detect(xs), batch.Detect(xs); a != b {
				t.Fatalf("seed %d N=%d: streaming %d vs batch %d", seed, n, a, b)
			}
		}
	}
}

func TestMeanThresholdBatchMatchesStreaming(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		xs := randomSeries(seed, 120)
		for _, n := range []int{0, 1, 4, 9} {
			stream := &MeanThreshold{Model: scoreModel{}, Voters: n, Threshold: -0.2}
			batch := &MeanThreshold{Model: batchScoreModel{}, Voters: n, Threshold: -0.2}
			if a, b := stream.Detect(xs), batch.Detect(xs); a != b {
				t.Fatalf("seed %d N=%d: streaming %d vs batch %d", seed, n, a, b)
			}
		}
	}
}

func TestMultiVotingWorkersDeterministic(t *testing.T) {
	xs := randomSeries(5, 785)
	voters := []int{1, 3, 5, 9, 15}
	base := (&MultiVoting{Model: scoreModel{}, Voters: voters, Threshold: 0.05}).DetectAll(xs)
	m := &MultiVoting{Model: batchScoreModel{}, Voters: voters, Threshold: 0.05}
	if got := m.DetectAll(xs); !reflect.DeepEqual(got, base) {
		t.Fatalf("batch model: DetectAll = %v, want %v", got, base)
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
	det := &Voting{Model: batchScoreModel{}, Voters: 3, Threshold: 0}
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
// chunk scorer: with a caller-supplied dst, both the batch and the
// streaming paths score without allocating.
func TestScoreChunkNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	xs := randomSeries(5, 1024)
	dst := make([]float64, len(xs))
	bm := batchScoreModel{}
	allocs := testing.AllocsPerRun(50, func() { scoreChunk(bm, bm, true, xs, dst) })
	if allocs != 0 {
		t.Fatalf("batched scoreChunk allocated %.0f times per run", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() { scoreChunk(scoreModel{}, nil, false, xs, dst) })
	if allocs != 0 {
		t.Fatalf("streaming scoreChunk allocated %.0f times per run", allocs)
	}
}
