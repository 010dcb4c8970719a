// Package ann implements the Backpropagation artificial neural network
// used by the paper as the state-of-the-art control model (from the
// authors' earlier MSST'13 work [11]): a three-layer feed-forward network
// with one hidden layer, trained by stochastic gradient descent on a
// squared-error loss with ±1 targets. The paper's configurations use
// hidden sizes 30/13/20 for the 19/13/12-feature sets, a 0.1 learning rate
// and at most 400 iterations.
package ann

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Config holds the training hyper-parameters. Zero fields take the paper's
// defaults.
type Config struct {
	// Hidden is the hidden-layer size. Default: same as the input size
	// (the paper's 13-feature configuration).
	Hidden int
	// LearningRate is the SGD step. Default 0.1.
	LearningRate float64
	// Epochs is the maximum number of passes over the data. Default 400.
	Epochs int
	// Patience stops training early when the epoch loss has not improved
	// by Tolerance for this many consecutive epochs. 0 disables early
	// stopping.
	Patience int
	// Tolerance is the minimum relative loss improvement counted as
	// progress. Default 1e-4 (only meaningful with Patience > 0).
	Tolerance float64
	// Seed drives weight initialization and sample shuffling.
	Seed int64
}

func (c Config) withDefaults(nin int) Config {
	if c.Hidden == 0 {
		c.Hidden = nin
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.Epochs == 0 {
		c.Epochs = 400
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-4
	}
	return c
}

// Network is a trained feed-forward network. Inputs are standardized with
// the training set's per-feature mean and deviation; both layers use tanh,
// so outputs lie in (−1, +1) matching the ±1 targets.
type Network struct {
	// NumInputs and Hidden are the layer sizes.
	NumInputs int `json:"numInputs"`
	Hidden    int `json:"hidden"`
	// W1 holds hidden×(inputs+1) first-layer weights (last column bias);
	// W2 holds hidden+1 output weights (last element bias).
	W1 [][]float64 `json:"w1"`
	W2 []float64   `json:"w2"`
	// Mean and Std are the standardization parameters.
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// Train fits a network on feature matrix x with ±1 targets y and optional
// per-sample weights w (nil = all 1); weights scale each sample's gradient,
// which is how the failed-class boost enters the baseline model.
func Train(x [][]float64, y, w []float64, cfg Config) (*Network, error) {
	if len(x) == 0 {
		return nil, errors.New("ann: empty training set")
	}
	if len(y) != len(x) {
		return nil, fmt.Errorf("ann: %d samples but %d targets", len(x), len(y))
	}
	if w != nil && len(w) != len(x) {
		return nil, fmt.Errorf("ann: %d samples but %d weights", len(x), len(w))
	}
	nin := len(x[0])
	if nin == 0 {
		return nil, errors.New("ann: zero-length feature vectors")
	}
	for i := range x {
		if len(x[i]) != nin {
			return nil, fmt.Errorf("ann: ragged feature matrix at row %d", i)
		}
	}
	cfg = cfg.withDefaults(nin)
	rng := rand.New(rand.NewSource(cfg.Seed))

	n := &Network{NumInputs: nin, Hidden: cfg.Hidden}
	n.Mean, n.Std = standardization(x)
	n.W1 = make([][]float64, cfg.Hidden)
	scale1 := 1 / math.Sqrt(float64(nin+1))
	for h := range n.W1 {
		n.W1[h] = make([]float64, nin+1)
		for j := range n.W1[h] {
			n.W1[h][j] = rng.NormFloat64() * scale1
		}
	}
	n.W2 = make([]float64, cfg.Hidden+1)
	scale2 := 1 / math.Sqrt(float64(cfg.Hidden+1))
	for j := range n.W2 {
		n.W2[j] = rng.NormFloat64() * scale2
	}

	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	xi := make([]float64, nin) // standardized input
	hid := make([]float64, cfg.Hidden)

	bestLoss := math.Inf(1)
	stall := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var loss, wsum float64
		for _, i := range order {
			sw := 1.0
			if w != nil {
				sw = w[i]
			}
			if sw == 0 {
				continue
			}
			n.standardize(x[i], xi)
			out := n.forward(xi, hid)
			err := out - y[i]
			loss += sw * err * err
			wsum += sw

			// Backpropagate the weighted squared error.
			lr := cfg.LearningRate * sw
			dOut := err * (1 - out*out) // tanh'
			for h := 0; h < cfg.Hidden; h++ {
				dHid := dOut * n.W2[h] * (1 - hid[h]*hid[h])
				n.W2[h] -= lr * dOut * hid[h]
				w1h := n.W1[h]
				for j := 0; j < nin; j++ {
					w1h[j] -= lr * dHid * xi[j]
				}
				w1h[nin] -= lr * dHid
			}
			n.W2[cfg.Hidden] -= lr * dOut
		}
		if cfg.Patience > 0 && wsum > 0 {
			loss /= wsum
			if loss < bestLoss*(1-cfg.Tolerance) {
				bestLoss = loss
				stall = 0
			} else if stall++; stall >= cfg.Patience {
				break
			}
		}
	}
	return n, nil
}

// standardization computes per-feature mean and deviation (deviation floors
// at a tiny epsilon so constant features stay harmless).
func standardization(x [][]float64) (mean, std []float64) {
	nf := len(x[0])
	mean = make([]float64, nf)
	std = make([]float64, nf)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(x)))
		if std[j] < 1e-9 {
			std[j] = 1
		}
	}
	return mean, std
}

func (n *Network) standardize(x, dst []float64) {
	for j := range dst {
		dst[j] = (x[j] - n.Mean[j]) / n.Std[j]
	}
}

// forward computes the network output for a standardized input, filling
// hid with hidden activations.
func (n *Network) forward(xi, hid []float64) float64 {
	for h := 0; h < n.Hidden; h++ {
		w1h := n.W1[h]
		sum := w1h[n.NumInputs]
		for j := 0; j < n.NumInputs; j++ {
			sum += w1h[j] * xi[j]
		}
		hid[h] = math.Tanh(sum)
	}
	out := n.W2[n.Hidden]
	for h := 0; h < n.Hidden; h++ {
		out += n.W2[h] * hid[h]
	}
	return math.Tanh(out)
}

// predictScratch is the scratch Predict keeps on its stack: standardized
// inputs plus hidden activations. The paper's networks (≤ 19 inputs,
// ≤ 30 hidden units) fit; larger ones fall back to the heap.
const predictScratch = 64

// Predict returns the network output in (−1, +1): positive means good,
// negative failed.
func (n *Network) Predict(x []float64) float64 {
	var stack [predictScratch]float64
	buf := stack[:]
	if n.NumInputs+n.Hidden > len(buf) {
		buf = make([]float64, n.NumInputs+n.Hidden)
	}
	xi, hid := buf[:n.NumInputs], buf[n.NumInputs:n.NumInputs+n.Hidden]
	n.standardize(x, xi)
	return n.forward(xi, hid)
}

// Marshal serializes the network to JSON.
func (n *Network) Marshal() ([]byte, error) { return json.Marshal(n) }

// Unmarshal deserializes a network and validates its shape.
func Unmarshal(data []byte) (*Network, error) {
	var n Network
	if err := json.Unmarshal(data, &n); err != nil {
		return nil, fmt.Errorf("ann: decode network: %w", err)
	}
	if n.NumInputs <= 0 || n.Hidden <= 0 {
		return nil, errors.New("ann: bad layer sizes")
	}
	if len(n.W1) != n.Hidden || len(n.W2) != n.Hidden+1 ||
		len(n.Mean) != n.NumInputs || len(n.Std) != n.NumInputs {
		return nil, errors.New("ann: inconsistent weight shapes")
	}
	for _, row := range n.W1 {
		if len(row) != n.NumInputs+1 {
			return nil, errors.New("ann: inconsistent first-layer shape")
		}
	}
	return &n, nil
}
