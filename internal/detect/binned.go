package detect

import "hddcart/internal/dataset"

// BinnedPredictor scores one quantized code row: positive values mean
// healthy, negative values mean failing. cart.BinnedTree, forest.Binned
// and boost.Binned satisfy it.
type BinnedPredictor interface {
	Predict(codes []uint8) float64
}

// BinnedSeries is a drive's quantized sample sequence: Series with the
// feature vectors replaced by their bin codes, one byte per feature.
type BinnedSeries struct {
	Codes [][]uint8
	Hours []int
	// Dropped carries over the source series' dropped-record count.
	Dropped int
}

// QuantizeSeries maps a drive's series onto bm's code space
// (dataset.BinnedMatrix.Quantize): the rows land in one contiguous
// allocation, Hours and Dropped carry over unchanged. ExtractSeries has
// already excluded non-finite vectors, so quantization never manufactures
// the reserved missing code from corrupt telemetry here — but the window
// sweeps still exclude NaN scores defensively, exactly as the float
// detectors do.
func QuantizeSeries(bm *dataset.BinnedMatrix, s Series) (BinnedSeries, error) {
	codes, err := bm.Quantize(s.X)
	if err != nil {
		return BinnedSeries{}, err
	}
	return BinnedSeries{Codes: codes, Hours: s.Hours, Dropped: s.Dropped}, nil
}

// AlarmOutcome converts an alarm index (-1 = none) into an Outcome
// against the drive's sample hours and failure instant — the shared
// conversion every scan path (Scan, internal/sweep) applies so a given
// alarm index always yields the same Outcome.
func AlarmOutcome(hours []int, idx, failHour int) Outcome {
	if idx < 0 {
		return Outcome{LeadHours: -1}
	}
	out := Outcome{Alarmed: true, AlarmHour: hours[idx], LeadHours: -1}
	if failHour >= 0 {
		out.LeadHours = failHour - out.AlarmHour
	}
	return out
}
