package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
)

// benchFleet is the 1M-drive synthetic sweep workload: short quantized
// series (8–16 samples, ~12 on average — a fleet monitored over a few
// days) over a 13-feature classifier, the feature width of the paper's
// SMART set. Code rows alias the quantized training matrix, so the fleet
// costs row headers, not row copies; PrepareBinned packs real bytes into
// the tiled matrices either way.
type benchFleet struct {
	bt        *cart.BinnedTree
	series    []detect.BinnedSeries
	failHours []int
	samples   int
}

const benchDrives = 1_000_000

func buildBenchFleet(b *testing.B) *benchFleet {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	const n, nf = 2000, 13
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			row[f] = math.Floor(rng.Float64()*64) / 64
		}
		x[i] = row
		y[i] = 1
		if row[0]-row[1] > 0.2 || row[5] > 0.9 {
			y[i] = -1
		}
		if rng.Float64() < 0.05 {
			y[i] = -y[i]
		}
	}
	tree, err := cart.TrainClassifier(x, y, nil, cart.Params{LossFA: 10, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	bm, err := dataset.BinMatrix(x, dataset.MaxBinsLimit)
	if err != nil {
		b.Fatal(err)
	}
	bt, err := tree.Compile().CompileBinned(bm)
	if err != nil {
		b.Fatal(err)
	}
	codes, err := bm.Quantize(x)
	if err != nil {
		b.Fatal(err)
	}
	const maxSamples = 16
	hours := make([]int, maxSamples)
	for i := range hours {
		hours[i] = i * 8
	}
	f := &benchFleet{
		bt:        bt,
		series:    make([]detect.BinnedSeries, benchDrives),
		failHours: make([]int, benchDrives),
	}
	for d := range f.series {
		m := 8 + rng.Intn(maxSamples-8+1)
		rows := make([][]uint8, m)
		for i := range rows {
			rows[i] = codes[rng.Intn(n)]
		}
		f.series[d] = detect.BinnedSeries{Codes: rows, Hours: hours[:m]}
		f.failHours[d] = -1
		if d%64 == 0 {
			f.failHours[d] = hours[m-1]
		}
		f.samples += m
	}
	return f
}

// BenchmarkFleetSweep measures the 1M-drive sweep. tiled/workers=W is the
// sharded engine over a prepared fleet, so the timed region is pure scan:
// partition kernels plus alarm replay, quantization and tiling already
// paid. prepare prices that one-time packing. Msamples/s is fleet-scan
// throughput; outcomes are byte-identical across every worker count.
func BenchmarkFleetSweep(b *testing.B) {
	f := buildBenchFleet(b)
	throughput := func(b *testing.B) {
		b.ReportMetric(float64(f.samples)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
	}
	b.Run("prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PrepareBinned(f.series, 0); err != nil {
				b.Fatal(err)
			}
		}
		throughput(b)
	})
	fleet, err := PrepareBinned(f.series, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tiled/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(f.bt, fleet, f.failHours, Config{Voters: 3, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			throughput(b)
		})
	}
}
