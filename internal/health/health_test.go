package health

import (
	"math/rand"
	"testing"

	"hddcart/internal/detect"
)

// thresholdModel alarms when the single feature drops below zero.
type thresholdModel struct{}

func (thresholdModel) Predict(x []float64) float64 { return x[0] }

func seriesFrom(hours []int, scores []float64) detect.Series {
	s := detect.Series{Hours: hours}
	for _, v := range scores {
		s.X = append(s.X, []float64{v})
	}
	return s
}

func TestPersonalizedWindows(t *testing.T) {
	det := &detect.Voting{Model: thresholdModel{}, Voters: 1}
	series := map[int]detect.Series{
		1: seriesFrom([]int{100, 101, 102}, []float64{1, -1, -1}), // alarm at 101
		2: seriesFrom([]int{100, 101, 102}, []float64{1, 1, 1}),   // missed
	}
	failHours := map[int]int{1: 400, 2: 400}
	win, err := PersonalizedWindows(det, series, failHours)
	if err != nil {
		t.Fatal(err)
	}
	if got := win[1]; got != 299 {
		t.Errorf("w_1 = %d, want 299", got)
	}
	if _, ok := win[2]; ok {
		t.Error("missed drive must not get a window")
	}
}

func TestPersonalizedWindowsErrors(t *testing.T) {
	if _, err := PersonalizedWindows(nil, nil, nil); err == nil {
		t.Error("nil detector should error")
	}
	det := &detect.Voting{Model: thresholdModel{}, Voters: 1}
	series := map[int]detect.Series{1: seriesFrom([]int{1}, []float64{1})}
	if _, err := PersonalizedWindows(det, series, map[int]int{}); err == nil {
		t.Error("missing fail hour should error")
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	q.Push(Warning{Drive: 1, Health: -0.2, Hour: 10})
	q.Push(Warning{Drive: 2, Health: -0.9, Hour: 11})
	q.Push(Warning{Drive: 3, Health: 0.1, Hour: 9})
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	if w, _ := q.Peek(); w.Drive != 2 {
		t.Errorf("Peek = drive %d, want 2 (worst health)", w.Drive)
	}
	order := []int{2, 1, 3}
	for _, want := range order {
		w, ok := q.Pop()
		if !ok || w.Drive != want {
			t.Fatalf("Pop = %+v, want drive %d", w, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("empty Pop should report !ok")
	}
	if _, ok := q.Peek(); ok {
		t.Error("empty Peek should report !ok")
	}
}

func TestQueueTieBreaksOnAge(t *testing.T) {
	var q Queue
	q.Push(Warning{Drive: 1, Health: -0.5, Hour: 20})
	q.Push(Warning{Drive: 2, Health: -0.5, Hour: 10})
	if w, _ := q.Pop(); w.Drive != 2 {
		t.Errorf("tie should pop older warning, got drive %d", w.Drive)
	}
}

func TestQueueHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	for i := 0; i < 500; i++ {
		q.Push(Warning{Drive: i, Health: rng.Float64()*2 - 1, Hour: rng.Intn(100)})
	}
	prev := -2.0
	for q.Len() > 0 {
		w, _ := q.Pop()
		if w.Health < prev {
			t.Fatalf("heap order violated: %v after %v", w.Health, prev)
		}
		prev = w.Health
	}
}
