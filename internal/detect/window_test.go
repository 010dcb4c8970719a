package detect

import (
	"math"
	"math/rand"
	"testing"
)

// naiveWindow recomputes the window state from scratch: the last ≤ n
// scores and the count below threshold. Window.Push must match it after
// every push.
func naiveWindow(scores []float64, n int, threshold float64) ([]float64, int) {
	if len(scores) > n {
		scores = scores[len(scores)-n:]
	}
	votes := 0
	for _, s := range scores {
		if s < threshold {
			votes++
		}
	}
	return scores, votes
}

func TestWindowPushMatchesNaive(t *testing.T) {
	const n = 4
	const threshold = -0.1
	stream := []float64{0.5, -0.3, -0.2, 0.9, -0.15, -0.5, 0.1, -0.9, -0.11, 0.3, -0.4}
	var w Window
	for i := range stream {
		w.Push(stream[i], n, threshold)
		wantScores, wantVotes := naiveWindow(stream[:i+1], n, threshold)
		if len(w.Scores) != len(wantScores) {
			t.Fatalf("push %d: window holds %d scores, want %d", i, len(w.Scores), len(wantScores))
		}
		for j := range wantScores {
			if w.Scores[j] != wantScores[j] {
				t.Fatalf("push %d: score[%d] = %v, want %v", i, j, w.Scores[j], wantScores[j])
			}
		}
		if w.Votes != wantVotes {
			t.Fatalf("push %d: votes = %d, want %d", i, w.Votes, wantVotes)
		}
		if w.Full(n) != (i+1 >= n) {
			t.Fatalf("push %d: Full = %v", i, w.Full(n))
		}
	}
}

func TestWindowTripped(t *testing.T) {
	const n = 3
	var w Window
	w.Push(-0.5, n, 0)
	w.Push(-0.5, n, 0)
	if w.Tripped(n, 0, false) {
		t.Error("partial window tripped")
	}
	w.Push(0.5, n, 0)
	if !w.Tripped(n, 0, false) {
		t.Error("2-of-3 failing votes did not trip voting rule")
	}
	// Mean rule: mean = (−0.5 −0.5 +0.5)/3 < 0 trips; against a −0.3
	// threshold it does not.
	if !w.Tripped(n, 0, true) {
		t.Error("negative mean did not trip mean rule at threshold 0")
	}
	if w.Tripped(n, -0.3, true) {
		// mean is −1/6 ≈ −0.167 > −0.3
		t.Error("mean above threshold tripped")
	}
}

// TestWindowMeanOrder pins the summation order: oldest-first, the order
// every consumer (Monitor, serve shards, batch sweeps) must share for
// bit-identical health degrees.
func TestWindowMeanOrder(t *testing.T) {
	vals := []float64{0.1, 0.2, 0.3}
	var w Window
	for _, v := range vals {
		w.Push(v, 3, 0)
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

// windowMeanAlarm is the online mean rule: push every score into a
// Window and return the first index where it trips, or -1.
func windowMeanAlarm(scores []float64, n int, threshold float64) int {
	var w Window
	for i, s := range scores {
		w.Push(s, n, threshold)
		if w.Tripped(n, threshold, true) {
			return i
		}
	}
	return -1
}

// TestWindowMeanMatchesSweeps: the online Window and the offline mean
// sweeps (MeanAlarm, MeanThreshold.Detect) must alarm at the same
// sample. A rolling window sum carries the rounding of scores that have
// left the window: on the first stream it alarmed at index 3, where the
// Window never trips.
func TestWindowMeanMatchesSweeps(t *testing.T) {
	check := func(scores []float64, n int, thr float64) {
		t.Helper()
		want := windowMeanAlarm(scores, n, thr)
		got, _ := MeanAlarm(append([]float64(nil), scores...), n, thr)
		det := (&MeanThreshold{Model: scoreModel{}, Voters: n, Threshold: thr}).Detect(series(scores...))
		if got != want || det != want {
			t.Fatalf("n=%d thr=%v %v: Window %d, MeanAlarm %d, MeanThreshold %d",
				n, thr, scores, want, got, det)
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

func TestWindowReset(t *testing.T) {
	var w Window
	for i := 0; i < 5; i++ {
		w.Push(-1, 3, 0)
	}
	w.Reset()
	if len(w.Scores) != 0 || w.Votes != 0 {
		t.Errorf("reset left %d scores, %d votes", len(w.Scores), w.Votes)
	}
	if w.Tripped(3, 0, false) {
		t.Error("reset window tripped")
	}
	// Capacity is retained for reuse.
	if cap(w.Scores) == 0 {
		t.Error("reset released the window's capacity")
	}
}
