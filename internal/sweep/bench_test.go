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

// floatBenchFleet is a float fleet shaped like a monitoring scan of
// hddpred evaluate -sweep: 2500 drives of 31 samples (~78k samples) over
// 13 features. Counter-like features are whole numbers with heavy ties;
// rate-like ones carry two decimals, so columns range from a few dozen
// distinct values to thousands.
func floatBenchFleet() []detect.Series {
	const drives, rows, nf = 2500, 31, 13
	rng := rand.New(rand.NewSource(3))
	hours := make([]int, rows)
	for i := range hours {
		hours[i] = 130 + i
	}
	series := make([]detect.Series, drives)
	for d := range series {
		x := make([][]float64, rows)
		for i := range x {
			row := make([]float64, nf)
			for f := range row {
				scale := math.Pow(4, float64(f%7))
				if f%2 == 0 {
					row[f] = math.Floor(rng.ExpFloat64() * scale)
				} else {
					row[f] = math.Round(rng.NormFloat64()*scale) / 100
				}
			}
			x[i] = row
		}
		series[d] = detect.Series{X: x, Hours: hours}
	}
	return series
}

// BenchmarkFleetSweep measures the fleet sweep's stages. quantize is the
// float path's set-up as hddpred evaluate -sweep runs it — BinMatrix over
// every sample, then Prepare — on floatBenchFleet. The rest use the
// 1M-drive binned fleet: tiled/workers=W is the sharded engine over a
// prepared fleet, so the timed region is pure scan (partition kernels
// plus the window sweep, quantization and tiling already paid), and
// prepare prices that one-time packing. Each tiled iteration sweeps a
// fresh copy of the model, so it scores (and records the vote column)
// rather than replaying the previous iteration's; replay times the Run
// that follows at the same model and threshold, which expands the vote
// column and runs the window sweep on GOMAXPROCS workers. Msamples/s is
// throughput; outcomes are byte-identical across every worker count.
func BenchmarkFleetSweep(b *testing.B) {
	b.Run("quantize", func(b *testing.B) {
		series := floatBenchFleet()
		var rows [][]float64
		for i := range series {
			rows = append(rows, series[i].X...)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bm, err := dataset.BinMatrix(rows, dataset.MaxBinsLimit)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Prepare(bm, series, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
	})
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
				model := *f.bt
				if _, err := Run(&model, fleet, f.failHours, Config{Voters: 3, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			throughput(b)
		})
	}
	b.Run("replay", func(b *testing.B) {
		if _, err := Run(f.bt, fleet, f.failHours, Config{Voters: 3}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := Run(f.bt, fleet, f.failHours, Config{Voters: 3})
			if err != nil {
				b.Fatal(err)
			}
			if res.Kernel != "" {
				b.Fatal("replay row scored the fleet")
			}
		}
		throughput(b)
	})
}
