package detect

import "hddcart/internal/par"

// scoreChunk scores xs sample by sample into dst; with a caller-provided
// dst it is allocation-free.
//
//hddlint:noalloc
func scoreChunk(model Predictor, xs [][]float64, dst []float64) {
	for i, x := range xs {
		dst[i] = model.Predict(x)
	}
}

// scanStride is how many consecutive drives one par.For index covers.
// Outcome is 24 bytes, so 8 drives ≥ three full cache lines of out: the
// claim counter is hit once per stride instead of once per drive, and two
// workers never interleave writes within one line (the only possibly-shared
// lines are the stride's edges). Results stay index-addressed and therefore
// identical for every worker count.
const scanStride = 8

// ScanBatch runs a detector over many drives' series on up to workers
// goroutines (≤ 1 scans serially). failHours[i] is drive i's failure
// instant, -1 (or a nil slice) for good drives. Outcomes are written at
// each drive's own index, so the result is identical for every worker
// count. The detector is shared across goroutines and must therefore be
// stateless across Detect calls, as Voting, MeanThreshold and MultiVoting
// are.
func ScanBatch(d Detector, series []Series, failHours []int, workers int) []Outcome {
	out := make([]Outcome, len(series))
	strides := (len(series) + scanStride - 1) / scanStride
	par.For(strides, workers, func(c int) {
		for i := c * scanStride; i < min((c+1)*scanStride, len(series)); i++ {
			failHour := -1
			if failHours != nil {
				failHour = failHours[i]
			}
			out[i] = Scan(d, series[i], failHour)
		}
	})
	return out
}
