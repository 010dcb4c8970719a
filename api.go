package hddcart

import (
	"fmt"

	"hddcart/internal/ann"
	"hddcart/internal/boost"
	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/featsel"
	"hddcart/internal/forest"
	"hddcart/internal/health"
	"hddcart/internal/reliability"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
	"hddcart/internal/storagesim"
	"hddcart/internal/sweep"
)

// Core SMART and data types, re-exported for downstream users.
type (
	// Record is one hourly SMART reading.
	Record = smart.Record
	// Feature describes one model input column.
	Feature = smart.Feature
	// FeatureSet is an ordered list of model inputs.
	FeatureSet = smart.FeatureSet
	// AttrID identifies a SMART attribute.
	AttrID = smart.AttrID

	// Sample is one model training row.
	Sample = dataset.Sample
	// Dataset is a materialized training set.
	Dataset = dataset.Dataset
	// DatasetConfig controls training-set assembly.
	DatasetConfig = dataset.Config
	// DatasetBuilder assembles training sets from per-drive traces.
	DatasetBuilder = dataset.Builder

	// Tree is a trained classification or regression tree.
	Tree = cart.Tree
	// TreeParams are the CART hyper-parameters.
	TreeParams = cart.Params
	// CompiledTree is a tree flattened into cache-friendly arrays for
	// fast, allocation-free inference (Tree.Compile). Predictions are
	// bit-identical to the pointer tree's.
	CompiledTree = cart.CompiledTree
	// Network is the BP ANN baseline model.
	Network = ann.Network
	// NetworkConfig are the BP ANN hyper-parameters.
	NetworkConfig = ann.Config

	// BinnedMatrix is the columnar quantized view of a feature matrix
	// (≤ 255 uint8 bins per feature plus a reserved missing bin); it
	// drives both histogram-binned training and binned-code inference.
	BinnedMatrix = dataset.BinnedMatrix
	// BinnedTree is a compiled tree remapped onto a BinnedMatrix's code
	// space (CompiledTree.CompileBinned): it scores quantized uint8 rows
	// with byte compares, one byte per feature.
	BinnedTree = cart.BinnedTree
	// BinnedForest is a compiled forest with every member binned.
	BinnedForest = forest.Binned
	// BinnedBoost is a compiled committee with every learner binned.
	BinnedBoost = boost.Binned

	// Detector scans a drive's chronological samples for an alarm.
	Detector = detect.Detector
	// Predictor scores one feature vector (trees and networks qualify).
	Predictor = detect.Predictor
	// BatchPredictor is a Predictor that also scores whole blocks of
	// feature vectors into a caller-provided buffer (compiled models and
	// networks qualify); detectors use the batch path automatically.
	BatchPredictor = detect.BatchPredictor
	// VotingDetector is the paper's voting-based detection algorithm.
	VotingDetector = detect.Voting
	// MeanThresholdDetector is the health-degree detection algorithm.
	MeanThresholdDetector = detect.MeanThreshold
	// Series is a drive's scored sample sequence.
	Series = detect.Series
	// Outcome is a drive-level detection result.
	Outcome = detect.Outcome
	// BinnedPredictor scores one quantized code row (binned trees,
	// forests and committees qualify).
	BinnedPredictor = detect.BinnedPredictor
	// BinnedSeries is a drive's quantized sample sequence.
	BinnedSeries = detect.BinnedSeries
	// FleetCodes is the reusable backing QuantizeFleet fills, amortizing
	// fleet quantization to zero steady-state allocations.
	FleetCodes = detect.FleetCodes

	// TiledMatrix is the feature-major tiled layout of a quantized code
	// matrix: within each tile of TileRows rows one feature's codes are
	// contiguous, so the sweep engine's partition kernels read straight
	// byte runs.
	TiledMatrix = dataset.TiledMatrix
	// TiledPredictor scores row ranges of a TiledMatrix (binned trees,
	// forests and committees qualify), bit-identical to per-row Predict.
	TiledPredictor = sweep.TiledPredictor
	// SweepConfig parameterizes a fleet sweep (window, threshold, mean
	// or voting sweep, worker count).
	SweepConfig = sweep.Config
	// SweepStats counts one shard's (or a whole sweep's) scanned drives,
	// alarms, samples, NaN exclusions and steals.
	SweepStats = sweep.Stats
	// SweepResult is a fleet sweep's outcomes plus per-shard stats.
	SweepResult = sweep.Result
	// PreparedFleet is a sharded, tiled fleet ready to sweep — prepare
	// once, run per model or threshold.
	PreparedFleet = sweep.Fleet

	// Result aggregates FDR/FAR/TIA over an evaluation.
	Result = eval.Result
	// Counter accumulates drive outcomes concurrently.
	Counter = eval.Counter

	// Warning is an outstanding drive-failure warning.
	Warning = health.Warning
	// WarningQueue orders warnings by health degree, worst first.
	WarningQueue = health.Queue

	// FleetConfig configures the synthetic datacenter.
	FleetConfig = simulate.Config
	// Fleet is a reproducible synthetic drive population.
	Fleet = simulate.Fleet
	// Drive describes one synthetic drive.
	Drive = simulate.Drive
	// FamilyParams tunes one synthetic drive family.
	FamilyParams = simulate.FamilyParams

	// DriveParams characterizes a drive population for reliability
	// analysis.
	DriveParams = reliability.DriveParams
	// PredictionParams characterizes a prediction model (k, TIA) for
	// reliability analysis.
	PredictionParams = reliability.Prediction

	// Forest is a random-forest ensemble (the paper's future work).
	Forest = forest.Forest
	// ForestConfig are the forest hyper-parameters.
	ForestConfig = forest.Config
	// CompiledForest is a forest with every tree compiled
	// (Forest.Compile); predictions are bit-identical to the original.
	CompiledForest = forest.Compiled
	// BoostEnsemble is an AdaBoost committee of shallow trees.
	BoostEnsemble = boost.Ensemble
	// BoostConfig are the AdaBoost hyper-parameters.
	BoostConfig = boost.Config
	// CompiledBoost is a committee with every weak learner compiled
	// (BoostEnsemble.Compile); predictions are bit-identical.
	CompiledBoost = boost.Compiled

	// StorageSimConfig parameterizes the discrete-event storage-system
	// simulation with proactive fault tolerance.
	StorageSimConfig = storagesim.Config
	// StorageSimResult aggregates one simulation run.
	StorageSimResult = storagesim.Result
)

// Feature-set constructors (paper Table II and §IV-B).
var (
	// BasicFeatures returns the 12 Table II features.
	BasicFeatures = smart.BasicFeatures
	// CriticalFeatures returns the 13 statistically selected features.
	CriticalFeatures = smart.CriticalFeatures
	// ExpertFeatures returns the 19 expertise-selected features of [11].
	ExpertFeatures = smart.ExpertFeatures
)

// GenerateFleet builds a synthetic drive fleet (the library's stand-in for
// a real datacenter's SMART collection).
func GenerateFleet(cfg FleetConfig) (*Fleet, error) { return simulate.New(cfg) }

// NewDatasetBuilder returns a training-set builder.
func NewDatasetBuilder(cfg DatasetConfig) (*DatasetBuilder, error) {
	return dataset.NewBuilder(cfg)
}

// IsTrainFailedDrive reports whether a failed drive belongs to the
// deterministic training split the DatasetBuilder uses (so evaluation code
// can exclude exactly the drives that trained the model).
func IsTrainFailedDrive(seed int64, id int, frac float64) bool {
	return dataset.IsTrainFailedDrive(seed, id, frac)
}

// TestStart returns the index range of a trace's test records within the
// [start,end) window split at frac (paper: the later 30% of the week).
func TestStart(trace []Record, start, end int, frac float64) (from, to int, ok bool) {
	return dataset.TestStart(trace, start, end, frac)
}

// TrainClassificationTree trains the paper's CT model on a finalized
// dataset. Zero-valued params take the paper's defaults (Minsplit 20,
// Minbucket 7, CP 0.001); set LossFA to 10 for the paper's false-alarm
// suppression. Training runs on params.Workers goroutines (0 = all
// cores) and is deterministic: the grown tree is bit-identical for any
// worker count, so parallelism never changes the model. Set
// params.MaxBins (≤ 255) to train on feature histograms instead of exact
// sorted columns — an order-of-magnitude speedup on large fleets that
// keeps the same determinism guarantee at any fixed bin budget.
func TrainClassificationTree(ds *Dataset, params TreeParams) (*Tree, error) {
	x, y, w := ds.XMatrix()
	tree, err := cart.TrainClassifier(x, y, w, params)
	if err != nil {
		return nil, err
	}
	tree.FeatureNames = ds.Features.Names()
	return tree, nil
}

// TrainRegressionTree trains the paper's RT health-degree model: set the
// dataset's targets with Dataset.SetHealthTargets first. Like the CT
// model it trains in parallel on params.Workers goroutines with a
// bit-identical result for any worker count, and accepts params.MaxBins
// for histogram-binned training.
func TrainRegressionTree(ds *Dataset, params TreeParams) (*Tree, error) {
	x, y, w := ds.XMatrix()
	tree, err := cart.TrainRegressor(x, y, w, params)
	if err != nil {
		return nil, err
	}
	tree.FeatureNames = ds.Features.Names()
	return tree, nil
}

// TrainNeuralNetwork trains the BP ANN baseline.
func TrainNeuralNetwork(ds *Dataset, cfg NetworkConfig) (*Network, error) {
	x, y, w := ds.XMatrix()
	return ann.Train(x, y, w, cfg)
}

// TrainRandomForest trains a random forest on a finalized classification
// dataset.
func TrainRandomForest(ds *Dataset, cfg ForestConfig) (*Forest, error) {
	x, y, w := ds.XMatrix()
	return forest.TrainClassifier(x, y, w, cfg)
}

// TrainAdaBoost trains an AdaBoost committee on a finalized classification
// dataset.
func TrainAdaBoost(ds *Dataset, cfg BoostConfig) (*BoostEnsemble, error) {
	x, y, w := ds.XMatrix()
	return boost.Train(x, y, w, cfg)
}

// SimulateStorageSystem runs the discrete-event RAID simulation with
// proactive fault tolerance.
func SimulateStorageSystem(cfg StorageSimConfig) (StorageSimResult, error) {
	return storagesim.Run(cfg)
}

// NewVotingDetector returns a validated voting detector (paper §V-A3):
// it alarms when more than half of a drive's last voters samples score
// below threshold. The model is required, voters must be ≥ 1 and the
// threshold must lie in [-1, 1]; invalid predictions (NaN scores) are
// excluded from the window rather than counted as healthy votes.
func NewVotingDetector(model Predictor, voters int, threshold float64) (*VotingDetector, error) {
	return detect.NewVoting(model, voters, threshold)
}

// NewMeanThresholdDetector returns a validated health-degree detector
// (paper §V-C): it alarms when the mean of the last voters valid scores
// drops below threshold. The same construction-time validation as
// NewVotingDetector applies.
func NewMeanThresholdDetector(model Predictor, voters int, threshold float64) (*MeanThresholdDetector, error) {
	return detect.NewMeanThreshold(model, voters, threshold)
}

// ExtractSeries computes the scored sample sequence of trace[from:to].
func ExtractSeries(features FeatureSet, trace []Record, from, to int) Series {
	return detect.ExtractSeries(features, trace, from, to)
}

// Scan runs a detector over a drive's series; failHour is -1 for good
// drives.
func Scan(d Detector, s Series, failHour int) Outcome { return detect.Scan(d, s, failHour) }

// ScanBatch runs a detector over many drives' series on up to workers
// goroutines (≤ 1 scans serially). failHours[i] is drive i's failure
// instant, -1 (or a nil slice) for good drives. Outcomes land at each
// drive's own index, so results are identical for every worker count.
func ScanBatch(d Detector, series []Series, failHours []int, workers int) []Outcome {
	return detect.ScanBatch(d, series, failHours, workers)
}

// CompileModel returns the compiled, inference-optimized form of a trained
// model: trees, forests and boosting committees are flattened into their
// cache-friendly array representations (with allocation-free batch
// scoring), and any other predictor — including the BP ANN, which already
// batches — is returned unchanged. The compiled model's predictions are
// bit-identical to the original's, so it is a drop-in replacement anywhere
// a Predictor is scored.
func CompileModel(p Predictor) Predictor {
	switch m := p.(type) {
	case *cart.Tree:
		return m.Compile()
	case *forest.Forest:
		return m.Compile()
	case *boost.Ensemble:
		return m.Compile()
	default:
		return p
	}
}

// BinnedModel is a model compiled onto a binned matrix's code space: it
// scores one quantized row (the Monitor's Bins path) and row ranges of a
// TiledMatrix (RunSweep).
type BinnedModel interface {
	BinnedPredictor
	TiledPredictor
}

// CompileModelBinned remaps a tree, forest or boosting model onto a
// binned matrix's uint8 code space for binned-code inference (one byte
// per feature, byte-compare kernels). Both pointer and compiled forms are
// accepted; any other predictor — including the BP ANN, whose dense
// layers have no binned form — is rejected. Scores are bit-identical to
// the float compiled path for inputs whose values the bins represent
// (see BinnedTree's equivalence contract).
func CompileModelBinned(p Predictor, bm *BinnedMatrix) (BinnedModel, error) {
	switch m := p.(type) {
	case *cart.Tree:
		return m.Compile().CompileBinned(bm)
	case *cart.CompiledTree:
		return m.CompileBinned(bm)
	case *forest.Forest:
		return m.Compile().CompileBinned(bm)
	case *forest.Compiled:
		return m.CompileBinned(bm)
	case *boost.Ensemble:
		return m.Compile().CompileBinned(bm)
	case *boost.Compiled:
		return m.CompileBinned(bm)
	default:
		return nil, fmt.Errorf("hddcart: %T has no binned-code form", p)
	}
}

// BinFeatureMatrix quantizes a feature matrix into at most maxBins uint8
// bins per feature (1 ≤ maxBins ≤ 255): the binning behind both
// histogram-binned training and binned-code inference.
func BinFeatureMatrix(x [][]float64, maxBins int) (*BinnedMatrix, error) {
	return dataset.BinMatrix(x, maxBins)
}

// QuantizeSeries maps a drive's series onto a binned matrix's code space,
// ready for PrepareSweepBinned.
func QuantizeSeries(bm *BinnedMatrix, s Series) (BinnedSeries, error) {
	return detect.QuantizeSeries(bm, s)
}

// QuantizeFleet maps every drive's series onto a binned matrix's code
// space through one contiguous backing, reusing fc across calls so the
// steady state allocates nothing. Codes equal QuantizeSeries' exactly;
// the returned series alias fc and are invalidated by the next call.
func QuantizeFleet(bm *BinnedMatrix, series []Series, fc *FleetCodes) ([]BinnedSeries, error) {
	return detect.QuantizeFleet(bm, series, fc)
}

// PrepareSweep shards and tiles a float-series fleet for sweeping:
// quantization is paid here, once, however many times the fleet is
// swept. shards = 0 uses the engine default.
func PrepareSweep(bm *BinnedMatrix, series []Series, shards int) (*PreparedFleet, error) {
	return sweep.Prepare(bm, series, shards)
}

// PrepareSweepBinned shards and tiles an already-quantized fleet.
func PrepareSweepBinned(series []BinnedSeries, shards int) (*PreparedFleet, error) {
	return sweep.PrepareBinned(series, shards)
}

// RunSweep sweeps a prepared fleet with a tiled model: every sample of
// every drive is scored through the feature-major kernels, then each
// drive's scores replay the paper's window sweep. Outcomes equal scoring
// each row with Predict and running the Voting (or, with cfg.Mean,
// MeanThreshold) window over the scores, for every worker and shard
// count. This is the code-space path for whole fleets; per-drive scans
// (Scan, ScanBatch) stay on float rows. A fleet can be swept repeatedly
// but not concurrently: each run resets the fleet's shared per-shard
// cursors and stats, so overlapping runs would split each other's work.
func RunSweep(model TiledPredictor, fleet *PreparedFleet, failHours []int, cfg SweepConfig) (*SweepResult, error) {
	return sweep.Run(model, fleet, failHours, cfg)
}

// PersonalizedWindows derives per-drive deterioration windows from a
// first-pass detector (§III-B).
func PersonalizedWindows(d Detector, series map[int]Series, failHours map[int]int) (map[int]int, error) {
	return health.PersonalizedWindows(d, series, failHours)
}

// SelectFeatures runs the §IV-B statistical feature selection: it scores
// every candidate with the rank-sum, reverse-arrangements and z-score
// tests and returns the k strongest features.
func SelectFeatures(candidates FeatureSet, good, failed [][]float64,
	failedSeries [][][]float64, k int) (FeatureSet, error) {
	scores, err := featsel.Evaluate(featsel.Data{
		Features: candidates, Good: good, Failed: failed, FailedSeries: failedSeries,
	})
	if err != nil {
		return nil, fmt.Errorf("hddcart: feature selection: %w", err)
	}
	return featsel.SelectTop(scores, k), nil
}

// SingleDriveMTTDL evaluates Eckart's Eq. 7 (hours).
func SingleDriveMTTDL(d DriveParams, p PredictionParams) float64 {
	return reliability.SingleDriveMTTDL(d, p)
}

// RAID6MTTDL solves the paper's Fig. 11 Markov model for an N-drive RAID-6
// group with proactive fault tolerance (hours). A zero PredictionParams
// means no prediction.
func RAID6MTTDL(n int, d DriveParams, p PredictionParams) (float64, error) {
	return reliability.RAID6PredictionMTTDL(n, d, p)
}

// RAID5MTTDL solves the RAID-5 proactive-fault-tolerance model (hours).
func RAID5MTTDL(n int, d DriveParams, p PredictionParams) (float64, error) {
	return reliability.RAID5PredictionMTTDL(n, d, p)
}
