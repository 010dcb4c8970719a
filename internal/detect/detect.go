// Package detect turns per-sample model outputs into drive-level failure
// warnings. It implements the paper's two detection schemes:
//
//   - the voting-based algorithm (§V-A3): a drive raises an alarm at the
//     first time point where more than N/2 of its last N consecutive
//     samples are classified failed;
//   - the health-degree scheme (§V-C): a drive raises an alarm when the
//     average predicted health of its last N samples falls below a
//     threshold.
//
// With N = 1 voting degenerates to the plain sequential scan used before
// §V-A3 ("predict the drive is going to break down if any sample is
// classified as failed").
//
// Invalid predictions — NaN scores from corrupt feature vectors — are
// excluded from every window rather than miscounted: a NaN compares false
// against any threshold, so counting it would silently turn a corrupt
// sample into a "healthy" vote. Both detectors behave exactly as if the
// invalid samples were absent from the series, and the alarm index still
// refers to the original series.
package detect

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"hddcart/internal/smart"
)

// scoreBuf pools per-series score buffers so the detectors stay
// allocation-free across drives in steady state.
var scoreBuf = sync.Pool{New: func() any { return new([]float64) }}

// getScores takes a pooled score buffer and returns it resliced to n;
// hand bufp back to scoreBuf when done.
func getScores(n int) (bufp *[]float64, scores []float64) {
	bufp = scoreBuf.Get().(*[]float64)
	if cap(*bufp) < n {
		*bufp = make([]float64, n)
	}
	return bufp, (*bufp)[:n]
}

// Predictor scores one feature vector: positive values mean healthy,
// negative values mean failing. Both cart.Tree and ann.Network satisfy it.
type Predictor interface {
	Predict(x []float64) float64
}

// Detector scans a drive's chronological per-sample feature vectors and
// returns the index of the first alarm, or -1 when the drive passes.
type Detector interface {
	Detect(xs [][]float64) int
}

// validThreshold reports whether t is a usable alarm cut: scores live on
// the ±1 classifier / health-degree scale, so any finite cut outside
// [-1, 1] either always or never trips and is a configuration bug.
func validThreshold(t float64) bool {
	return !math.IsNaN(t) && t >= -1 && t <= 1
}

// Voting is the paper's voting-based detector over a binary classifier.
// The zero-configuration escape hatches (Voters < 1 acting as 1) exist for
// literal construction in tests and experiments; production callers should
// build detectors with NewVoting, which rejects degenerate configurations
// outright.
type Voting struct {
	// Model scores samples; a sample votes "failed" when its score is
	// below Threshold.
	Model Predictor
	// Voters is N, the window size. Values < 1 behave as 1.
	Voters int
	// Threshold is the per-sample vote cut (0 for ±1 classifiers).
	Threshold float64
}

var _ Detector = (*Voting)(nil)

// NewVoting validates the configuration and returns the detector.
func NewVoting(model Predictor, voters int, threshold float64) (*Voting, error) {
	v := &Voting{Model: model, Voters: voters, Threshold: threshold}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// Validate rejects configurations that would silently degenerate: a nil
// model, a non-positive window, or a threshold outside [-1, 1].
func (v *Voting) Validate() error {
	if v.Model == nil {
		return errors.New("detect: voting needs a model")
	}
	if v.Voters < 1 {
		return fmt.Errorf("detect: voting window N must be positive, got %d", v.Voters)
	}
	if !validThreshold(v.Threshold) {
		return fmt.Errorf("detect: voting threshold %v outside [-1, 1]", v.Threshold)
	}
	return nil
}

// Detect implements Detector: the first index i where more than N/2 of the
// last N valid samples up to i vote failed (and at least N valid samples
// exist), else -1. NaN scores are excluded from the window.
func (v *Voting) Detect(xs [][]float64) int {
	return detectWith(v.Model, xs, v.Voters, v.Threshold, VoteAlarm)
}

// MeanThreshold is the health-degree detector: it alarms when the mean of
// the last N predicted health degrees drops below Threshold. As with
// Voting, literal construction tolerates Voters < 1; NewMeanThreshold is
// the validating path.
type MeanThreshold struct {
	// Model predicts health degrees in [−1, +1].
	Model Predictor
	// Voters is N, the averaging window. Values < 1 behave as 1.
	Voters int
	// Threshold is the alarm cut on the window mean.
	Threshold float64
}

var _ Detector = (*MeanThreshold)(nil)

// NewMeanThreshold validates the configuration and returns the detector.
func NewMeanThreshold(model Predictor, voters int, threshold float64) (*MeanThreshold, error) {
	m := &MeanThreshold{Model: model, Voters: voters, Threshold: threshold}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate rejects configurations that would silently degenerate: a nil
// model, a non-positive window, or a threshold outside [-1, 1].
func (m *MeanThreshold) Validate() error {
	if m.Model == nil {
		return errors.New("detect: mean-threshold needs a model")
	}
	if m.Voters < 1 {
		return fmt.Errorf("detect: mean-threshold window N must be positive, got %d", m.Voters)
	}
	if !validThreshold(m.Threshold) {
		return fmt.Errorf("detect: mean-threshold %v outside [-1, 1]", m.Threshold)
	}
	return nil
}

// Detect implements Detector: the first index where the mean of the last
// N valid samples drops below Threshold, else -1. NaN scores are excluded
// from the window.
func (m *MeanThreshold) Detect(xs [][]float64) int {
	return detectWith(m.Model, xs, m.Voters, m.Threshold, MeanAlarm)
}

// detectWith scores a whole series into a pooled buffer and runs one
// detection rule (VoteAlarm or MeanAlarm) over it.
func detectWith(model Predictor, xs [][]float64, voters int, threshold float64,
	alarm func(scores []float64, voters int, threshold float64) (idx, excluded int)) int {
	bufp, scores := getScores(len(xs))
	scoreChunk(model, xs, scores)
	idx, _ := alarm(scores, voters, threshold)
	scoreBuf.Put(bufp)
	return idx
}

// rowsBuf pools the gathered plan rows ExtractSeries reads, so a fleet
// pass does not leave a copy of every trace's columns behind.
var rowsBuf = sync.Pool{New: func() any { return new(smart.Rows) }}

// Series is a drive's scored sample sequence: the feature vectors of the
// records eligible for detection together with their sample hours.
type Series struct {
	X     [][]float64
	Hours []int
	// Dropped counts records excluded while building the series because
	// their feature vectors were not finite (corrupt telemetry that
	// survived upstream repair).
	Dropped int
}

// ExtractSeries computes the feature vectors of trace[from:to]. The full
// trace is retained for change-rate lookback, so records whose lookback
// reaches before the trace start are skipped. Records whose extracted
// feature vector contains a non-finite value are excluded and counted in
// Series.Dropped — scoring them would hand the model NaN inputs. from/to
// are clamped.
func ExtractSeries(features smart.FeatureSet, trace []smart.Record, from, to int) Series {
	if from < 0 {
		from = 0
	}
	if to > len(trace) {
		to = len(trace)
	}
	var s Series
	if to <= from {
		return s
	}
	p := features.Compile()
	rows := rowsBuf.Get().(*smart.Rows)
	defer rowsBuf.Put(rows)
	lo := p.RowsOf(trace, from, to, rows)
	s.X = make([][]float64, 0, to-from)
	s.Hours = make([]int, 0, to-from)
	var x []float64
	for i := from; i < to; i++ {
		if x == nil {
			x = make([]float64, len(features))
		}
		if !p.Extract(x, rows, i-lo) {
			continue // reuse the buffer for the next record
		}
		if !finiteVector(x) {
			s.Dropped++
			continue
		}
		s.X = append(s.X, x)
		s.Hours = append(s.Hours, trace[i].Hour)
		x = nil
	}
	return s
}

// finiteVector reports whether every component of x is a real number.
func finiteVector(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Outcome is the result of scanning one drive.
type Outcome struct {
	// Alarmed reports whether the detector raised a warning.
	Alarmed bool
	// AlarmHour is the sample hour of the alarm (valid when Alarmed).
	AlarmHour int
	// LeadHours is the time in advance of the failure (failed drives
	// with an alarm only; -1 otherwise).
	LeadHours int
}

// Scan runs a detector over a drive's series. failHour is the drive's
// failure instant, or -1 for good drives.
func Scan(d Detector, s Series, failHour int) Outcome {
	return AlarmOutcome(s.Hours, d.Detect(s.X), failHour)
}

// MultiVoting evaluates the voting detector for several window sizes in a
// single pass over a drive's samples, scoring each sample exactly once.
// ROC sweeps over N (the paper's Figs. 2 and 5) are ~|N| times cheaper
// this way than running independent detectors.
type MultiVoting struct {
	// Model scores samples; a sample votes "failed" below Threshold.
	Model Predictor
	// Voters lists the window sizes to evaluate (values < 1 act as 1).
	Voters []int
	// Threshold is the per-sample vote cut.
	Threshold float64
}

// NewMultiVoting validates the configuration and returns the detector.
func NewMultiVoting(model Predictor, voters []int, threshold float64) (*MultiVoting, error) {
	m := &MultiVoting{Model: model, Voters: voters, Threshold: threshold}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate rejects a nil model, non-positive window sizes and thresholds
// outside [-1, 1].
func (m *MultiVoting) Validate() error {
	if m.Model == nil {
		return errors.New("detect: multi-voting needs a model")
	}
	for _, n := range m.Voters {
		if n < 1 {
			return fmt.Errorf("detect: multi-voting window N must be positive, got %d", n)
		}
	}
	if !validThreshold(m.Threshold) {
		return fmt.Errorf("detect: multi-voting threshold %v outside [-1, 1]", m.Threshold)
	}
	return nil
}

// DetectAll returns, for each configured window size, the index of the
// first alarm (-1 = none), in the same order as Voters. Samples are
// scored once; each window size then runs VoteAlarm on its own copy of
// the scores, so every alarm is exactly Voting's for that window size
// (NaN scores excluded, indexes in series coordinates).
func (m *MultiVoting) DetectAll(xs [][]float64) []int {
	out := make([]int, len(m.Voters))
	if len(out) == 0 {
		return out
	}
	scores := make([]float64, len(xs))
	scoreChunk(m.Model, xs, scores)
	buf := make([]float64, len(xs))
	for i, n := range m.Voters {
		copy(buf, scores)
		out[i], _ = VoteAlarm(buf, n, m.Threshold)
	}
	return out
}

// ScanAll runs DetectAll and converts each alarm into an Outcome (as Scan
// does for a single detector).
func (m *MultiVoting) ScanAll(s Series, failHour int) []Outcome {
	idxs := m.DetectAll(s.X)
	out := make([]Outcome, len(idxs))
	for i, idx := range idxs {
		out[i] = AlarmOutcome(s.Hours, idx, failHour)
	}
	return out
}
