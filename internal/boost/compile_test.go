package boost

import (
	"math"
	"math/rand"
	"testing"
)

// boostData builds a deterministic noisy two-class dataset.
func boostData(seed int64, n int) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := []float64{
			math.Floor(rng.Float64()*32) / 32,
			math.Floor(rng.Float64()*32) / 32,
			math.Floor(rng.Float64()*32) / 32,
		}
		x[i] = row
		y[i] = 1
		if row[0]-row[1]+0.5*row[2] > 0.4 {
			y[i] = -1
		}
		if rng.Float64() < 0.1 {
			y[i] = -y[i]
		}
	}
	return x, y
}

func TestCompiledBoostBitIdentical(t *testing.T) {
	x, y := boostData(13, 1000)
	e, err := Train(x, y, nil, Config{Rounds: 8, MaxDepth: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Rounds() < 2 {
		t.Fatalf("want a multi-round ensemble, got %d rounds", e.Rounds())
	}
	c := e.Compile()
	rng := rand.New(rand.NewSource(31))
	probes := append([][]float64(nil), x...)
	for i := 0; i < 64; i++ {
		probes = append(probes, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	// NaN probes: a missing value routes right at every split.
	for i, row := range x {
		p := append([]float64(nil), row...)
		p[i%len(p)] = math.NaN()
		probes = append(probes, p)
	}
	for i, p := range probes {
		want := e.Predict(p)
		if got := c.Predict(p); got != want {
			t.Fatalf("Predict diverged at %d: %v vs %v", i, got, want)
		}
		if e.PredictFailed(p) != c.PredictFailed(p) {
			t.Fatalf("PredictFailed diverged at %d", i)
		}
	}
}

// TestCompiledBoostBatchNoAlloc pins per-row scoring of a whole matrix
// through the compiled committee at zero allocations.
func TestCompiledBoostBatchNoAlloc(t *testing.T) {
	x, y := boostData(17, 600)
	e, err := Train(x, y, nil, Config{Rounds: 5, MaxDepth: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Compile()
	dst := make([]float64, len(x))
	if allocs := testing.AllocsPerRun(10, func() {
		for i, row := range x {
			dst[i] = c.Predict(row)
		}
	}); allocs != 0 {
		t.Fatalf("per-row Predict allocated %.0f times per run", allocs)
	}
}

func TestCompiledBoostEmpty(t *testing.T) {
	c := (&Ensemble{}).Compile()
	if got := c.Predict([]float64{1, 2, 3}); got != 0 {
		t.Fatalf("empty compiled ensemble Predict = %v, want 0", got)
	}
}
