package detect

// BinnedPredictor scores one quantized code row: positive values mean
// healthy, negative values mean failing. cart.BinnedTree and
// forest.Binned satisfy it.
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
