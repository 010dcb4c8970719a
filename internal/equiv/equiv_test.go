package equiv

import (
	"errors"
	"math"
	"testing"
)

// specMatrix is the adversarial case catalogue. Every regime the binned
// remapping has to survive gets a named entry; CI stress-runs this file
// with -count=5 -race, so each Spec must be deterministic.
func specMatrix() []struct {
	name string
	spec Spec
} {
	return []struct {
		name string
		spec Spec
	}{
		{"ties-on-boundaries", Spec{Rows: 400, Features: 5, MaxBins: 8, Seed: 101, DistinctValues: 40}},
		{"singleton-bins", Spec{Rows: 300, Features: 4, MaxBins: 255, Seed: 102, DistinctValues: 20}},
		{"nan-and-inf", Spec{Rows: 400, Features: 5, MaxBins: 16, Seed: 103, DistinctValues: 30, NaNFrac: 0.15, InfFrac: 0.08}},
		{"denormals", Spec{Rows: 300, Features: 3, MaxBins: 8, Seed: 104, DistinctValues: 25, DenormalFrac: 0.3}},
		{"single-bin-feature", Spec{Rows: 200, Features: 4, MaxBins: 8, Seed: 105, DistinctValues: 16, SingleBinFeature: true}},
		{"one-bin-budget", Spec{Rows: 150, Features: 3, MaxBins: 1, Seed: 106, DistinctValues: 10, NaNFrac: 0.1}},
		{"regression", Spec{Rows: 400, Features: 5, MaxBins: 8, Seed: 107, DistinctValues: 40, Regression: true, NaNFrac: 0.1}},
		{"regression-wide", Spec{Rows: 350, Features: 6, MaxBins: 64, Seed: 108, Regression: true, InfFrac: 0.05}},
	}
}

// verdictPaths is the full scoring-path battery: every engine, block
// sizes bracketing the internal partition thresholds, and sharded
// workers.
func verdictPaths() []Path {
	return []Path{
		Pointer(),
		CompiledScalar(),
		CompiledBatch(0),
		CompiledBatch(1),
		CompiledBatch(17),
		CompiledBatch(1024),
		CompiledBatch(1025),
		CompiledWorkers(4),
		BinnedScalar(),
		TiledRange(0),
		TiledRange(1),
		TiledRange(255),
		TiledRange(256),
		TiledRange(257),
		TiledWorkers(4),
	}
}

// TestEquivalenceMatrices is the tentpole assertion: over every
// adversarial Spec, all fifteen scoring paths are bit-identical on the
// corpus — including the feature-major tiled paths the fleet-sweep
// engine runs on. CI additionally stress-runs this test with -count=5
// -race.
func TestEquivalenceMatrices(t *testing.T) {
	for _, tc := range specMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Generate(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckAll(c, verdictPaths()...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHarnessDetectsDivergence tests the tester: a deliberately broken
// path must produce a Mismatch naming the right row and paths. A harness
// that cannot fail proves nothing.
func TestHarnessDetectsDivergence(t *testing.T) {
	c, err := Generate(Spec{Rows: 64, Features: 3, MaxBins: 8, Seed: 9, DistinctValues: 12})
	if err != nil {
		t.Fatal(err)
	}
	broken := Path{Name: "broken", Score: func(c *Case, dst []float64) {
		for i, row := range c.X {
			dst[i] = c.Tree.Predict(row)
		}
		dst[3] += 1
	}}
	err = Check(c, Pointer(), broken)
	var m *Mismatch
	if !errors.As(err, &m) {
		t.Fatalf("broken path not caught: %v", err)
	}
	if m.Row != 3 || m.PathA != "pointer" || m.PathB != "broken" {
		t.Fatalf("mismatch misattributed: %+v", m)
	}
	// NaN == NaN: a path returning NaN where the reference returns NaN is
	// not a divergence.
	if !sameBits(math.NaN(), math.NaN()) {
		t.Fatal("NaN must equal NaN in harness semantics")
	}
	if sameBits(math.Copysign(0, -1), 0) {
		t.Fatal("-0 and +0 must be distinct in harness semantics")
	}
}

// TestWithinBinMetamorphic pins the metamorphic property: perturbing
// every value anywhere within its own bin leaves the codes — and
// therefore every binned verdict — unchanged.
func TestWithinBinMetamorphic(t *testing.T) {
	for _, tc := range specMatrix()[:4] {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Generate(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			before := make([]float64, len(c.X))
			BinnedScalar().Score(c, before)
			for trial := int64(0); trial < 3; trial++ {
				perturbed := c.PerturbWithinBin(1000 + trial)
				codes, err := c.Bins.Quantize(perturbed)
				if err != nil {
					t.Fatal(err)
				}
				for i := range codes {
					for f := range codes[i] {
						if codes[i][f] != c.Codes[i][f] {
							t.Fatalf("trial %d row %d feature %d: code %d → %d after within-bin perturbation (%v → %v)",
								trial, i, f, c.Codes[i][f], codes[i][f], c.X[i][f], perturbed[i][f])
						}
					}
				}
				for i, row := range codes {
					if after := c.Binned.Predict(row); !sameBits(before[i], after) {
						t.Fatalf("trial %d row %d: binned verdict changed under within-bin perturbation: %v → %v",
							trial, i, before[i], after)
					}
				}
			}
		})
	}
}

// TestCheckDetect runs the detect-level half of the harness: float
// detectors vs the fleet sweep across window sizes and worker counts.
func TestCheckDetect(t *testing.T) {
	for _, tc := range specMatrix()[:3] {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spec.Regression {
				t.Skip("detectors are classification-only")
			}
			c, err := Generate(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckDetect(c, []int{1, 3, 8}, []int{0, 1, 4}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGenerateRejectsBadSpecs pins the generator's input validation.
func TestGenerateRejectsBadSpecs(t *testing.T) {
	for _, spec := range []Spec{
		{Rows: 4, Features: 3, MaxBins: 8},
		{Rows: 100, Features: 0, MaxBins: 8},
		{Rows: 100, Features: 3, MaxBins: 0},
		{Rows: 100, Features: 3, MaxBins: 300},
	} {
		if _, err := Generate(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}
