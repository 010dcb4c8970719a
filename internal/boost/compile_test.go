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

// TestCompiledBoostBitIdentical checks that Compile keeps every weak
// learner and its weight in training order: the compiled learners'
// per-row Predict, folded as Ensemble.Predict folds them, reproduce the
// committee's score bit for bit.
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
	if len(c.Trees) != e.Rounds() || len(c.Alphas) != e.Rounds() {
		t.Fatalf("compiled %d learners and %d weights, want %d", len(c.Trees), len(c.Alphas), e.Rounds())
	}
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
		var score, total float64
		for j, ct := range c.Trees {
			score += c.Alphas[j] * ct.Predict(p)
			total += c.Alphas[j]
		}
		if want, got := e.Predict(p), score/total; got != want {
			t.Fatalf("Predict diverged at %d: %v vs %v", i, got, want)
		}
	}
}

// TestCompiledBoostBatchNoAlloc pins per-row scoring of a whole matrix
// through the committee at zero allocations.
func TestCompiledBoostBatchNoAlloc(t *testing.T) {
	x, y := boostData(17, 600)
	e, err := Train(x, y, nil, Config{Rounds: 5, MaxDepth: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(x))
	if allocs := testing.AllocsPerRun(10, func() {
		for i, row := range x {
			dst[i] = e.Predict(row)
		}
	}); allocs != 0 {
		t.Fatalf("per-row Predict allocated %.0f times per run", allocs)
	}
}

func TestCompiledBoostEmpty(t *testing.T) {
	e := &Ensemble{}
	if c := e.Compile(); len(c.Trees) != 0 || len(c.Alphas) != 0 {
		t.Fatalf("empty ensemble compiled to %d learners", len(c.Trees))
	}
	if got := e.Predict([]float64{1, 2, 3}); got != 0 {
		t.Fatalf("empty ensemble Predict = %v, want 0", got)
	}
}
