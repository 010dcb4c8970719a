package detect

import (
	"math"
	"math/rand"
	"testing"
)

// lastN is the window oracle: the last ≤ n scores of a stream.
func lastN(stream []float64, n int) []float64 {
	if len(stream) > n {
		return stream[len(stream)-n:]
	}
	return stream
}

// bruteTrips is the detection-rule oracle over the scores pushed so far:
// with a full window of n, more than n/2 of them below threshold
// (voting), or their oldest-first sum over n below threshold (mean).
func bruteTrips(stream []float64, n int, threshold float64, useMean bool) bool {
	if len(stream) < n {
		return false
	}
	votes, sum := 0, 0.0
	for _, s := range stream[len(stream)-n:] {
		if s < threshold {
			votes++
		}
		sum += s
	}
	if useMean {
		return sum/float64(n) < threshold
	}
	return 2*votes > n
}

func TestWindowPushMatchesNaive(t *testing.T) {
	const n = 4
	stream := []float64{0.5, -0.3, -0.2, 0.9, -0.15, -0.5, 0.1, -0.9, -0.11, 0.3, -0.4}
	var w Window
	for i := range stream {
		w.Push(stream[i], n)
		want := lastN(stream[:i+1], n)
		if len(w.Scores) != len(want) {
			t.Fatalf("push %d: window holds %d scores, want %d", i, len(w.Scores), len(want))
		}
		for j := range want {
			if w.Scores[j] != want[j] {
				t.Fatalf("push %d: score[%d] = %v, want %v", i, j, w.Scores[j], want[j])
			}
		}
	}
}

// TestWindowTripped checks Tripped after every push against bruteTrips,
// both rules, on hand-picked and random streams.
func TestWindowTripped(t *testing.T) {
	check := func(stream []float64, n int, threshold float64) {
		t.Helper()
		var w Window
		for i, s := range stream {
			w.Push(s, n)
			for _, useMean := range []bool{false, true} {
				if got, want := w.Tripped(n, threshold, useMean), bruteTrips(stream[:i+1], n, threshold, useMean); got != want {
					t.Fatalf("n=%d thr=%v mean=%v %v: push %d tripped %v, want %v",
						n, threshold, useMean, stream, i, got, want)
				}
			}
		}
	}
	// 2 of 3 failing trips voting only once the window is full; the mean
	// (−0.5 −0.5 +0.5)/3 trips at threshold 0 but not at −0.3.
	check([]float64{-0.5, -0.5, 0.5}, 3, 0)
	check([]float64{-0.5, -0.5, 0.5}, 3, -0.3)
	// Exactly half failing never trips voting (strict majority).
	check([]float64{-1, -1, 1, 1, -1, 1}, 4, 0)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		stream := make([]float64, rng.Intn(60))
		for i := range stream {
			stream[i] = math.Round(rng.NormFloat64()*100) / 100
		}
		check(stream, 1+rng.Intn(17), math.Round(rng.NormFloat64()*40)/100)
	}
}

// TestWindowMeanOrder pins the summation order: oldest-first, the order
// every consumer (Monitor, serve shards, batch sweeps) must share for
// bit-identical health degrees.
func TestWindowMeanOrder(t *testing.T) {
	vals := []float64{0.1, 0.2, 0.3}
	var w Window
	for _, v := range vals {
		w.Push(v, 3)
	}
	// Built with runtime float adds (a constant expression would fold in
	// exact precision and miss the rounding the window actually does).
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	want := sum / float64(len(vals))
	if w.Mean() != want {
		t.Errorf("mean %v, want oldest-first sum %v", w.Mean(), want)
	}
	var empty Window
	if !math.IsNaN(empty.Mean()) {
		t.Errorf("empty mean = %v, want NaN", empty.Mean())
	}
}

// bruteMeanAlarm is the mean rule's first alarm over a whole stream: the
// first index whose window trips bruteTrips, or -1.
func bruteMeanAlarm(scores []float64, n int, threshold float64) int {
	for i := range scores {
		if bruteTrips(scores[:i+1], n, threshold, true) {
			return i
		}
	}
	return -1
}

// windowMeanAlarm is the online mean rule: push every score into a
// Window and return the first index where it trips, or -1.
func windowMeanAlarm(scores []float64, n int, threshold float64) int {
	var w Window
	for i, s := range scores {
		w.Push(s, n)
		if w.Tripped(n, threshold, true) {
			return i
		}
	}
	return -1
}

// TestWindowMeanMatchesSweeps: the online Window and the offline mean
// sweeps (MeanAlarm, MeanThreshold.Detect) must all alarm where the
// brute-force rule does, each window summed fresh and oldest first. A
// rolling window sum carries the rounding of scores that have left the
// window: on the first stream it alarmed at index 3, where the rule
// never trips.
func TestWindowMeanMatchesSweeps(t *testing.T) {
	check := func(scores []float64, n int, thr float64) {
		t.Helper()
		want := bruteMeanAlarm(scores, n, thr)
		win := windowMeanAlarm(scores, n, thr)
		got, _ := MeanAlarm(append([]float64(nil), scores...), n, thr)
		det := (&MeanThreshold{Model: scoreModel{}, Voters: n, Threshold: thr}).Detect(series(scores...))
		if win != want || got != want || det != want {
			t.Fatalf("n=%d thr=%v %v: brute force %d, Window %d, MeanAlarm %d, MeanThreshold %d",
				n, thr, scores, want, win, got, det)
		}
	}
	check([]float64{0.3, -0.6, -0.1, -0.2}, 3, -0.3)
	// RT-like streams: a few two-decimal leaf values, so window means
	// often equal a threshold in exact arithmetic and rounding decides.
	rng := rand.New(rand.NewSource(20))
	thresholds := []float64{-0.5, -0.37, -0.3, -0.2, -0.1, -0.02, 0}
	for trial := 0; trial < 2000; trial++ {
		leaves := make([]float64, 2+rng.Intn(8))
		for i := range leaves {
			leaves[i] = math.Round(rng.Float64()*200-100) / 100
		}
		scores := make([]float64, rng.Intn(200))
		for i := range scores {
			scores[i] = leaves[rng.Intn(len(leaves))]
		}
		check(scores, 1+rng.Intn(11), thresholds[rng.Intn(len(thresholds))])
	}
}
