package hddcart

import (
	"math/rand"
	"testing"

	"hddcart/internal/cart"
)

// TestMonitorQueueOrderInterleaved drives several drives' observation
// streams interleaved hour by hour and checks the warning queue hands the
// operator drives most-critical-first (paper §III-B), including after
// later observations revise an already-warned drive's health.
func TestMonitorQueueOrderInterleaved(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures,
		Model:    firstFeatureModel{},
		Voters:   3,
		UseMean:  true,
		// Mean-mode threshold: a drive warns when its 3-sample mean
		// health drops below -0.05.
		Threshold: -0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-drive health trajectories, observed interleaved: worst ends far
	// below mid, which ends below mild; healthy never trips.
	streams := map[string][]float64{
		"worst":   {0.5, -0.6, -0.9, -0.95, -0.99},
		"mid":     {0.5, -0.2, -0.5, -0.55, -0.6},
		"mild":    {0.5, 0.1, -0.3, -0.32, -0.3},
		"healthy": {0.9, 0.8, 0.9, 0.85, 0.9},
	}
	order := []string{"mid", "worst", "healthy", "mild"}
	for h := 0; h < 5; h++ {
		for _, serial := range order {
			m.Observe(serial, recAt(h, streams[serial][h]))
		}
	}
	if got := m.Outstanding(); got != 3 {
		t.Fatalf("outstanding = %d, want 3", got)
	}
	var popped []string
	prev := -2.0
	for {
		w, ok := m.NextWarning()
		if !ok {
			break
		}
		if w.Health < prev {
			t.Fatalf("queue out of order: %q health %v after %v", w.Serial, w.Health, prev)
		}
		prev = w.Health
		popped = append(popped, w.Serial)
	}
	want := []string{"worst", "mid", "mild"}
	for i, serial := range want {
		if i >= len(popped) || popped[i] != serial {
			t.Fatalf("pop order = %v, want %v", popped, want)
		}
	}
}

// TestMonitorCompiledModelEquivalence feeds identical interleaved streams
// to a monitor scoring through the compiled tree and one scoring through
// the pointer tree, and requires identical warnings — the end-to-end form
// of the compiled layout's bit-identical guarantee.
func TestMonitorCompiledModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		v := rng.Float64()*2 - 1
		// Train in the same offset domain recAt feeds the monitor.
		x = append(x, []float64{v + monitorScoreOffset})
		if v < -0.2 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	tree, err := cart.TrainClassifier(x, y, nil, cart.Params{MinSplit: 4, MinBucket: 2, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(model Predictor) *Monitor {
		m, err := NewMonitor(MonitorConfig{
			Features: monitorFeatures, Model: model, Voters: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	compiled := mk(tree.Compile())
	pointer := mk(tree)

	serials := []string{"a", "b", "c"}
	for h := 0; h < 200; h++ {
		for _, serial := range serials {
			v := rng.Float64()*2 - 1
			w1, ok1 := compiled.Observe(serial, recAt(h, v))
			w2, ok2 := pointer.Observe(serial, recAt(h, v))
			if ok1 != ok2 || w1 != w2 {
				t.Fatalf("hour %d drive %s: compiled warning (%+v,%v) vs pointer (%+v,%v)",
					h, serial, w1, ok1, w2, ok2)
			}
		}
	}
	for {
		w1, ok1 := compiled.NextWarning()
		w2, ok2 := pointer.NextWarning()
		if ok1 != ok2 || w1 != w2 {
			t.Fatalf("queues diverged: (%+v,%v) vs (%+v,%v)", w1, ok1, w2, ok2)
		}
		if !ok1 {
			break
		}
	}
}
