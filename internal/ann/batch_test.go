package ann

import (
	"math/rand"
	"testing"
)

// trainedNet trains a small deterministic network on a noisy linear
// boundary over three inputs.
func trainedNet(t *testing.T, hidden int) (*Network, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		x = append(x, []float64{a, b, c})
		if a+b-c > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	n, err := Train(x, y, nil, Config{Hidden: hidden, Epochs: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return n, x
}

// TestPredictBatchBitIdentical proves Predict's stack scratch and its
// heap fallback (more than predictScratch inputs plus hidden units) both
// match the forward pass run on freshly allocated scratch, bit for bit.
func TestPredictBatchBitIdentical(t *testing.T) {
	for _, hidden := range []int{6, predictScratch} {
		n, x := trainedNet(t, hidden)
		for i, row := range x {
			xi := make([]float64, n.NumInputs)
			n.standardize(row, xi)
			want := n.forward(xi, make([]float64, n.Hidden))
			if got := n.Predict(row); got != want {
				t.Fatalf("hidden=%d row %d: Predict = %v, want %v", hidden, i, got, want)
			}
		}
	}
}

// TestPredictNoAlloc pins per-row scoring of a paper-sized network at
// zero allocations: its scratch lives on Predict's stack.
func TestPredictNoAlloc(t *testing.T) {
	n, x := trainedNet(t, 30)
	sink := 0.0
	if allocs := testing.AllocsPerRun(20, func() {
		for _, row := range x {
			sink += n.Predict(row)
		}
	}); allocs != 0 {
		t.Fatalf("Predict allocated %.0f times per run", allocs)
	}
	_ = sink
}
