package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
	"hddcart/internal/trace"
)

// Population sizes of the simulator's two families at scale 1.
const (
	simGood   = 22790 + 2441
	simFailed = 434 + 127
)

// simulateTraces generates the traces of drives idx on two goroutines
// (the benchmark host has two CPUs). Each trace is a pure function of the
// fleet seed and the drive index, so the result does not depend on
// scheduling.
func simulateTraces(fleet *simulate.Fleet, idx []int) [][]smart.Record {
	out := make([][]smart.Record, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(idx) {
					return
				}
				out[i] = fleet.Trace(idx[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// simDrives is a simulated population with every trace generated.
type simDrives struct {
	drives []simulate.Drive
	traces [][]smart.Record
}

// simulatePopulation simulates about good healthy and failed failing
// drives at seed.
func simulatePopulation(seed int64, good, failed int) (*simDrives, error) {
	fleet, err := simulate.New(simulate.Config{
		Seed:        seed,
		GoodScale:   float64(good) / simGood,
		FailedScale: float64(failed) / simFailed,
	})
	if err != nil {
		return nil, err
	}
	s := &simDrives{drives: fleet.Drives()}
	idx := make([]int, len(s.drives))
	for i := range idx {
		idx[i] = i
	}
	s.traces = simulateTraces(fleet, idx)
	return s, nil
}

// Every model trains on one population simulated at modelSeed, whatever
// the run's seed: a model's size sets the cost of scoring, and trees grown
// at each seed differ enough in depth to move the sweep's pass time by
// more than 2×. The run's seed varies the fleet the models score.
const (
	modelSeed                  = 0
	trainGood, trainFailed int = 80, 30
)

// trainingSet simulates the training population and assembles the CT
// training set exactly as `hddpred train` does: the paper's week-one
// window, a 168 h failed window, failed samples boosted to 20% of the
// weight, split seed 1 (evaluate's default).
func trainingSet(e *env) (*dataset.Dataset, error) {
	sim, err := simulatePopulation(modelSeed, e.scaled(trainGood), e.scaled(trainFailed))
	if err != nil {
		return nil, err
	}
	b, err := dataset.NewBuilder(dataset.Config{
		Features:          smart.CriticalFeatures(),
		PeriodStart:       0,
		PeriodEnd:         simulate.HoursPerWeek,
		FailedWindowHours: 168,
		FailedShare:       0.2,
		Seed:              1,
	})
	if err != nil {
		return nil, err
	}
	for i, d := range sim.drives {
		if d.Failed {
			b.AddFailedDrive(i, d.FailHour, sim.traces[i])
		} else {
			b.AddGoodDrive(i, sim.traces[i])
		}
	}
	return b.Finalize()
}

// trainCT trains the paper's classification tree (10× false-alarm loss) as
// `hddpred train -model ct` does.
func trainCT(ds *dataset.Dataset) (*cart.Tree, error) {
	x, y, w := ds.XMatrix()
	tree, err := cart.TrainClassifier(x, y, w, cart.Params{LossFA: 10})
	if err != nil {
		return nil, err
	}
	tree.FeatureNames = smart.CriticalFeatures().Names()
	return tree, nil
}

// modelFile mirrors hddpred's on-disk model envelope.
type modelFile struct {
	Type string     `json:"type"`
	Tree *cart.Tree `json:"tree,omitempty"`
}

// writeModel writes tree as a hddpred ct model file and returns its bytes.
func writeModel(path string, tree *cart.Tree) ([]byte, error) {
	data, err := json.Marshal(modelFile{Type: "ct", Tree: tree})
	if err != nil {
		return nil, err
	}
	return data, os.WriteFile(path, data, 0o644)
}

// stream is one monitored drive of a windowed fleet: a run of consecutive
// records cut from a simulated trace and moved in time so that its first
// record lands on a chosen hour.
type stream struct {
	serial   string
	family   string
	failed   bool
	failHour int // moved with the records; -1 for healthy drives
	recs     []smart.Record
}

// failEvery places one failing drive in every failEvery drives: a fleet
// with about 2% of its drives failing.
const failEvery = 50

// windowFleet cuts n streams of rows records each out of a simulated
// population, first record at firstHour. Healthy streams take disjoint
// windows of healthy traces; failing streams take the last windows before
// each failure, up to failWindows per failed drive, so they sit inside the
// deterioration window. The population is simulated just large enough.
func windowFleet(seed int64, n, rows, firstHour int) ([]stream, error) {
	const failWindows = 4
	nFailed := (n + failEvery - 1) / failEvery
	perGood := (simulate.TotalHours * 97 / 100) / rows // ~1% of hours drop out
	good := (n-nFailed+perGood-1)/perGood + 1
	failed := (nFailed+failWindows-1)/failWindows + 1
	sim, err := simulatePopulation(seed, good, failed)
	if err != nil {
		return nil, err
	}
	var goodWin, failWin []stream
	for i, d := range sim.drives {
		tr := sim.traces[i]
		if !d.Failed {
			for lo := 0; lo+rows <= len(tr); lo += rows {
				goodWin = append(goodWin, cutWindow(d.Family, tr[lo:lo+rows], firstHour, -1))
			}
			continue
		}
		for k := 1; k <= failWindows && k*rows <= len(tr); k++ {
			failWin = append(failWin, cutWindow(d.Family, tr[len(tr)-k*rows:len(tr)-(k-1)*rows], firstHour, d.FailHour))
		}
	}
	if len(goodWin) < n-nFailed || len(failWin) < nFailed {
		return nil, fmt.Errorf("population too small: %d healthy and %d failing windows for %d drives",
			len(goodWin), len(failWin), n)
	}
	out := make([]stream, n)
	gi, fi := 0, 0
	for i := range out {
		if i%failEvery == failEvery/2 {
			out[i] = failWin[fi]
			fi++
		} else {
			out[i] = goodWin[gi]
			gi++
		}
		out[i].serial = fmt.Sprintf("B%07d", i)
	}
	return out, nil
}

// cutWindow copies recs, shifting every hour (and failHour, when ≥ 0) so
// the first record lands on firstHour.
func cutWindow(family string, recs []smart.Record, firstHour, failHour int) stream {
	shift := firstHour - recs[0].Hour
	s := stream{family: family, failHour: -1, recs: make([]smart.Record, len(recs))}
	copy(s.recs, recs)
	for i := range s.recs {
		s.recs[i].Hour += shift
	}
	if failHour >= 0 {
		s.failed = true
		s.failHour = failHour + shift
	}
	return s
}

// csvWriter writes trace CSV to a file while hashing every byte.
type csvWriter struct {
	f  *os.File
	bw *bufio.Writer
	tw *trace.Writer
	h  hash.Hash
}

func createCSV(path string) (*csvWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	return &csvWriter{f: f, bw: bw, tw: trace.NewWriter(bw), h: h}, nil
}

// close flushes and closes the file and returns the bytes' digest.
func (w *csvWriter) close() ([]byte, error) {
	err := w.tw.Flush()
	if err == nil {
		err = w.bw.Flush()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return w.h.Sum(nil), err
}

// streamsDigest digests a windowed fleet's serials, hours and value bits.
func streamsDigest(streams []stream) []byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range streams {
		h.Write([]byte(s.serial))
		put(uint64(s.failHour))
		for i := range s.recs {
			r := &s.recs[i]
			put(uint64(r.Hour))
			for _, v := range r.Normalized {
				put(math.Float64bits(v))
			}
			for _, v := range r.Raw {
				put(math.Float64bits(v))
			}
		}
	}
	return h.Sum(nil)
}

// digestOf returns the hex SHA-256 of the concatenated parts.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
