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
	// Network is the BP ANN baseline model.
	Network = ann.Network
	// NetworkConfig are the BP ANN hyper-parameters.
	NetworkConfig = ann.Config

	// Detector scans a drive's chronological samples for an alarm.
	Detector = detect.Detector
	// Predictor scores one feature vector (trees and networks qualify).
	Predictor = detect.Predictor
	// VotingDetector is the paper's voting-based detection algorithm.
	VotingDetector = detect.Voting
	// MeanThresholdDetector is the health-degree detection algorithm.
	MeanThresholdDetector = detect.MeanThreshold
	// Series is a drive's scored sample sequence.
	Series = detect.Series
	// Outcome is a drive-level detection result.
	Outcome = detect.Outcome
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
	// BoostEnsemble is an AdaBoost committee of shallow trees.
	BoostEnsemble = boost.Ensemble
	// BoostConfig are the AdaBoost hyper-parameters.
	BoostConfig = boost.Config

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
