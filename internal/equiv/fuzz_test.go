package equiv

import (
	"testing"

	"hddcart/internal/cpu"
)

// FuzzBinnedInferenceEquivalence drives the whole harness from fuzzed
// corpus shapes: whatever matrix the fuzzer conjures, every scoring path
// must stay bit-identical on the corpus. Spec fields are clamped into
// their valid ranges so every input is a meaningful case rather than a
// validation rejection.
func FuzzBinnedInferenceEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(8), uint8(16), false, uint16(40), uint16(1500), uint16(500))
	f.Add(int64(77), uint8(2), uint8(1), uint8(0), true, uint16(0), uint16(0), uint16(0))
	f.Add(int64(3), uint8(6), uint8(255), uint8(12), false, uint16(600), uint16(300), uint16(300))
	f.Add(int64(9), uint8(1), uint8(2), uint8(3), true, uint16(2000), uint16(0), uint16(4000))
	// Tile-seam seed: rows derive from nanPM, and 2500‰ lands the corpus
	// at 346 rows — past dataset.TileRows, so the tiled paths cross a
	// tile boundary.
	f.Add(int64(12), uint8(5), uint8(32), uint8(24), false, uint16(2500), uint16(150), uint16(80))
	f.Fuzz(func(t *testing.T, seed int64, features, maxBins, distinct uint8,
		regression bool, nanPM, infPM, denPM uint16) {
		spec := Spec{
			Rows:             96 + int(nanPM%4001)/10, // 96..496: spans the 256-row tile seam
			Features:         1 + int(features)%8,
			MaxBins:          1 + int(maxBins)%255,
			Seed:             seed,
			Regression:       regression,
			DistinctValues:   int(distinct) % 48,
			NaNFrac:          float64(nanPM%4001) / 10000, // ≤ 0.4
			InfFrac:          float64(infPM%2001) / 10000, // ≤ 0.2
			DenormalFrac:     float64(denPM%4001) / 10000, // ≤ 0.4
			SingleBinFeature: seed%3 == 0,
		}
		c, err := Generate(spec)
		if err != nil {
			t.Fatalf("generate %+v: %v", spec, err)
		}
		if err := CheckAll(c,
			Pointer(), CompiledScalar(),
			BinnedScalar(), TiledRange(0), TiledRange(33),
		); err != nil {
			t.Fatal(err)
		}
		// The dispatch-sensitive paths must also hold under every kernel
		// tier this build supports — the fuzzer hunts for corpus shapes
		// where a vector tier's seam handling diverges from scalar.
		for _, p := range []Path{TiledRange(0), TiledRange(33)} {
			forced := make([]Path, 0, 3)
			for _, k := range cpu.Kernels() {
				forced = append(forced, ForceKernel(k, p))
			}
			if err := CheckAll(c, forced...); err != nil {
				t.Fatal(err)
			}
		}
	})
}
