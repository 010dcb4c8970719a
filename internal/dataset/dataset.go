// Package dataset assembles model-ready training samples and evaluation
// drives from raw SMART traces, following the paper's experimental setup
// (§V-A1): good drives contribute a few randomly chosen samples from the
// earlier 70% of a one-week observation window (and their later 30% as test
// data); failed drives are split 7:3 by drive, with the samples of the last
// n hours before failure used as failed training samples.
//
// The package is independent of how traces are produced: callers feed it
// per-drive record sequences (from the simulator, from CSV, or from a live
// collector).
package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"hddcart/internal/smart"
)

// Sample is one model input row.
type Sample struct {
	// Drive is the drive identifier the sample came from.
	Drive int
	// Hour is the absolute sample hour.
	Hour int
	// X is the feature vector (layout defined by the dataset's FeatureSet).
	X []float64
	// Failed is the ground-truth class of the originating drive.
	Failed bool
	// HoursToFail is the lead time before the drive's failure (0 = the
	// failure hour); -1 for good drives.
	HoursToFail int
	// Target is the training target: +1 for good and -1 for failed in
	// classification, or a health degree in [-1, +1] for regression.
	Target float64
	// Weight is the sample's training weight.
	Weight float64
}

// Dataset is a materialized training set.
type Dataset struct {
	// Features documents the layout of every sample's X.
	Features smart.FeatureSet
	// Samples holds the rows.
	Samples []Sample
}

// Counts returns the number of good and failed samples.
func (d *Dataset) Counts() (good, failed int) {
	for i := range d.Samples {
		if d.Samples[i].Failed {
			failed++
		} else {
			good++
		}
	}
	return good, failed
}

// Config controls training-set assembly.
type Config struct {
	// Features is the model input layout.
	Features smart.FeatureSet
	// PeriodStart/PeriodEnd bound (half-open, in hours) the good-sample
	// observation window — one week in most of the paper's experiments.
	PeriodStart, PeriodEnd int
	// GoodTrainFrac is the time fraction of the window used for
	// training (earlier part); the rest is test. Default 0.7.
	GoodTrainFrac float64
	// SamplesPerGoodDrive is the number of random training samples per
	// good drive. Default 3.
	SamplesPerGoodDrive int
	// FailedWindowHours is the failed-sample time window: samples within
	// the last n hours before failure become failed training samples.
	// Default 168 (the paper's best, Table IV).
	FailedWindowHours int
	// FailedSamplesPerDrive caps failed samples per drive, chosen evenly
	// across the window (the RT experiment uses 12); 0 means all.
	FailedSamplesPerDrive int
	// FailedTrainFrac is the by-drive train split of failed drives.
	// Default 0.7.
	FailedTrainFrac float64
	// FailedShare rebalances class weights so failed samples carry this
	// share of the total training weight (the paper boosts failed
	// samples to 20%). 0 disables reweighting (all weights 1).
	FailedShare float64
	// Seed drives the random sample picks and the failed-drive split.
	Seed int64
}

// withDefaults fills zero fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.GoodTrainFrac == 0 {
		c.GoodTrainFrac = 0.7
	}
	if c.SamplesPerGoodDrive == 0 {
		c.SamplesPerGoodDrive = 3
	}
	if c.FailedWindowHours == 0 {
		c.FailedWindowHours = 168
	}
	if c.FailedTrainFrac == 0 {
		c.FailedTrainFrac = 0.7
	}
	return c
}

// IsTrainFailedDrive reports whether the failed drive with the given ID
// belongs to the training split. The assignment is a deterministic hash of
// (seed, id), so streaming callers get a consistent split without
// coordinating drive lists.
func IsTrainFailedDrive(seed int64, id int, frac float64) bool {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return float64(h%10000) < frac*10000
}

// Builder incrementally assembles a training set from per-drive traces.
// Feed every drive once via AddGoodDrive / AddFailedDrive, then call
// Finalize.
type Builder struct {
	cfg  Config
	rng  *rand.Rand
	ds   Dataset
	done bool

	// Feature extraction: the compiled plan, and the lookback rows and
	// feature vector of the sample being extracted, reused across samples.
	plan *smart.Plan
	rows smart.Rows
	x    []float64
}

// NewBuilder returns a Builder for the given configuration.
func NewBuilder(cfg Config) (*Builder, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Features) == 0 {
		return nil, errors.New("dataset: empty feature set")
	}
	if cfg.PeriodEnd <= cfg.PeriodStart {
		return nil, fmt.Errorf("dataset: bad period [%d,%d)", cfg.PeriodStart, cfg.PeriodEnd)
	}
	if cfg.GoodTrainFrac <= 0 || cfg.GoodTrainFrac > 1 {
		return nil, fmt.Errorf("dataset: bad GoodTrainFrac %v", cfg.GoodTrainFrac)
	}
	if cfg.FailedShare < 0 || cfg.FailedShare >= 1 {
		return nil, fmt.Errorf("dataset: bad FailedShare %v", cfg.FailedShare)
	}
	return &Builder{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		ds:   Dataset{Features: cfg.Features},
		plan: cfg.Features.Compile(),
		x:    make([]float64, len(cfg.Features)),
	}, nil
}

// extract returns the feature vector of trace[i] as a new slice, or nil
// when i is too early in the trace for the set's change-rate lookback.
func (b *Builder) extract(trace []smart.Record, i int) []float64 {
	lo := b.plan.RowsOf(trace, i, i+1, &b.rows)
	if !b.plan.Extract(b.x, &b.rows, i-lo) {
		return nil
	}
	return slices.Clone(b.x)
}

// TrainCutoff returns the hour splitting the observation window into
// training (before) and test (at or after) for good drives.
func (b *Builder) TrainCutoff() int {
	return TrainCutoff(b.cfg.PeriodStart, b.cfg.PeriodEnd, b.cfg.GoodTrainFrac)
}

// TrainCutoff returns the boundary hour of a [start,end) window split at
// the given time fraction.
func TrainCutoff(start, end int, frac float64) int {
	return start + int(float64(end-start)*frac)
}

// AddGoodDrive contributes SamplesPerGoodDrive random training samples from
// the training portion of the drive's records within the observation
// window. Records too early for the feature set's change-rate lookback are
// skipped. It returns the number of samples added.
func (b *Builder) AddGoodDrive(id int, trace []smart.Record) int {
	cutoff := b.TrainCutoff()
	// Candidate indices: records inside [PeriodStart, cutoff) that have
	// enough history for change rates.
	var candidates []int
	for i := range trace {
		h := trace[i].Hour
		if h < b.cfg.PeriodStart || h >= cutoff {
			continue
		}
		candidates = append(candidates, i)
	}
	if len(candidates) == 0 {
		return 0
	}
	// Paper: "randomly choose 3 samples per good drive ... to eliminate
	// the bias of a single drive's sample in a particular hour".
	b.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	added := 0
	for _, idx := range candidates {
		if added >= b.cfg.SamplesPerGoodDrive {
			break
		}
		x := b.extract(trace, idx)
		if x == nil {
			continue
		}
		b.ds.Samples = append(b.ds.Samples, Sample{
			Drive: id, Hour: trace[idx].Hour, X: x,
			Failed: false, HoursToFail: -1, Target: +1, Weight: 1,
		})
		added++
	}
	return added
}

// AddFailedDrive contributes the drive's failed training samples (those
// within FailedWindowHours of the failure instant) if the drive hashes into
// the training split; otherwise it contributes nothing. failHour is the
// failure instant. It returns the number of samples added.
func (b *Builder) AddFailedDrive(id, failHour int, trace []smart.Record) int {
	if !IsTrainFailedDrive(b.cfg.Seed, id, b.cfg.FailedTrainFrac) {
		return 0
	}
	return b.AddFailedTrainingDrive(id, failHour, trace)
}

// AddFailedTrainingDrive contributes a failed drive's window samples
// unconditionally (callers that manage their own split).
func (b *Builder) AddFailedTrainingDrive(id, failHour int, trace []smart.Record) int {
	return b.AddFailedDriveWindow(id, failHour, b.cfg.FailedWindowHours, trace)
}

// AddFailedDriveWindow is AddFailedTrainingDrive with an explicit per-drive
// window, used by the regression-tree pipeline whose deterioration windows
// are personalized (§III-B).
func (b *Builder) AddFailedDriveWindow(id, failHour, windowHours int, trace []smart.Record) int {
	var idxs []int
	for i := range trace {
		lead := failHour - trace[i].Hour
		if lead < 0 || lead > windowHours {
			continue
		}
		idxs = append(idxs, i)
	}
	if limit := b.cfg.FailedSamplesPerDrive; limit > 0 && len(idxs) > limit {
		idxs = pickEvenly(idxs, limit)
	}
	added := 0
	for _, idx := range idxs {
		x := b.extract(trace, idx)
		if x == nil {
			continue
		}
		b.ds.Samples = append(b.ds.Samples, Sample{
			Drive: id, Hour: trace[idx].Hour, X: x,
			Failed: true, HoursToFail: failHour - trace[idx].Hour,
			Target: -1, Weight: 1,
		})
		added++
	}
	return added
}

// pickEvenly selects k indices evenly spread across idxs.
func pickEvenly(idxs []int, k int) []int {
	if k >= len(idxs) {
		return idxs
	}
	out := make([]int, 0, k)
	step := float64(len(idxs)-1) / float64(k-1)
	prev := -1
	for i := 0; i < k; i++ {
		j := int(float64(i)*step + 0.5)
		if j == prev {
			continue
		}
		out = append(out, idxs[j])
		prev = j
	}
	return out
}

// Finalize applies class reweighting and returns the dataset. The builder
// must not be reused afterwards.
func (b *Builder) Finalize() (*Dataset, error) {
	if b.done {
		return nil, errors.New("dataset: Finalize called twice")
	}
	b.done = true
	if b.cfg.FailedShare > 0 {
		good, failed := b.ds.Counts()
		if failed > 0 && good > 0 {
			// Total good weight is `good`; give each failed sample
			// weight so that failed carries FailedShare of the total:
			// wf·failed = share/(1−share)·good.
			share := b.cfg.FailedShare
			wf := share / (1 - share) * float64(good) / float64(failed)
			for i := range b.ds.Samples {
				if b.ds.Samples[i].Failed {
					b.ds.Samples[i].Weight = wf
				}
			}
		}
	}
	return &b.ds, nil
}

// SetClassificationTargets resets every sample's target to the CT
// convention (+1 good, −1 failed).
func (d *Dataset) SetClassificationTargets() {
	for i := range d.Samples {
		if d.Samples[i].Failed {
			d.Samples[i].Target = -1
		} else {
			d.Samples[i].Target = +1
		}
	}
}

// SetHealthTargets sets regression targets per §III-B: good samples stay at
// +1; a failed sample i hours before failure gets h(i) = −1 + i/w, where w
// is the drive's personalized deterioration window from windows, falling
// back to defaultWindow for drives without one (the paper uses 24 h for
// drives the CT model missed). Targets are clipped to +1.
func (d *Dataset) SetHealthTargets(windows map[int]int, defaultWindow int) error {
	if defaultWindow <= 0 {
		return fmt.Errorf("dataset: bad default window %d", defaultWindow)
	}
	for i := range d.Samples {
		s := &d.Samples[i]
		if !s.Failed {
			s.Target = +1
			continue
		}
		w := defaultWindow
		if pw, ok := windows[s.Drive]; ok && pw > 0 {
			w = pw
		}
		h := -1 + float64(s.HoursToFail)/float64(w)
		if h > 1 {
			h = 1
		}
		s.Target = h
	}
	return nil
}

// XMatrix returns the samples' feature vectors, targets and weights as
// parallel slices, the layout the tree and ANN trainers consume. The
// returned slices alias the dataset's storage.
func (d *Dataset) XMatrix() (x [][]float64, y, w []float64) {
	x = make([][]float64, len(d.Samples))
	y = make([]float64, len(d.Samples))
	w = make([]float64, len(d.Samples))
	for i := range d.Samples {
		x[i] = d.Samples[i].X
		y[i] = d.Samples[i].Target
		w[i] = d.Samples[i].Weight
	}
	return x, y, w
}

// Subsample returns a new dataset containing every sample whose drive is in
// keep. It shares sample storage with d.
func (d *Dataset) Subsample(keep func(drive int) bool) *Dataset {
	out := &Dataset{Features: d.Features}
	for i := range d.Samples {
		if keep(d.Samples[i].Drive) {
			out.Samples = append(out.Samples, d.Samples[i])
		}
	}
	return out
}

// TestStart returns the index of the first record of trace that falls in
// the test portion (at or after the cutoff hour) of the [start,end) window,
// and the index one past the last. ok is false when the trace has no test
// records in the window.
func TestStart(trace []smart.Record, start, end int, frac float64) (from, to int, ok bool) {
	cutoff := TrainCutoff(start, end, frac)
	from, to = -1, len(trace)
	for i := range trace {
		h := trace[i].Hour
		if h >= end {
			to = i
			break
		}
		if from == -1 && h >= cutoff {
			from = i
		}
	}
	if from == -1 || from >= to {
		return 0, 0, false
	}
	return from, to, true
}
