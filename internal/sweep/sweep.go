// Package sweep is the fleet-sweep engine: it takes a compiled binned
// model plus the whole fleet's quantized series and drives a sharded,
// cache-conscious scan to completion. Three layers stack up:
//
//  1. Layout — every shard's rows are packed into one feature-major
//     dataset.TiledMatrix, so the tree kernels read each split feature
//     as a straight byte run (cart.BinnedTree.PredictTiledRange).
//  2. Scheduling — drives are serial-hashed into P shards; each shard
//     owns a bounded queue of tile-granular work items (whole-drive
//     ranges of ~itemTiles tiles) drained by an atomic cursor. Workers
//     start on their home shard and steal from the others once it runs
//     dry, with per-worker pooled scratch so the steady state is
//     allocation-free.
//  3. Collection — outcomes land at drive-owned indexes and per-shard
//     stats are commutative sums merged in shard order, so the result is
//     byte-identical for every worker count and, outcomes-wise, every
//     shard count. The internal/equiv matrices and the determinism
//     matrix test pin this.
//
// Unlike the per-drive detectors (detect.Voting, detect.MeanThreshold),
// a sweep scores every sample of every drive — there is no early exit on
// alarm — and then replays the shared NaN-excluding window sweeps
// (detect.VoteAlarm / detect.MeanAlarm) over each drive's score segment,
// which yields exactly the same alarm indexes. Fleets are overwhelmingly
// healthy, so the work lost to scoring past an alarm is tiny next to the
// locality won by never leaving a tile.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"hddcart/internal/cpu"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
)

// TiledPredictor scores rows [lo, hi) of a feature-major tiled code
// matrix into dst[:hi-lo]. cart.BinnedTree, forest.Binned and
// boost.Binned implement it, each bit-identical to its per-row Predict —
// the contract that makes sweep outcomes equal a per-row scan's.
type TiledPredictor interface {
	PredictTiledRange(tm *dataset.TiledMatrix, lo, hi int, dst []float64)
}

// DefaultShards is the shard count Prepare and PrepareBinned use when
// asked for zero shards.
const DefaultShards = 16

// itemTiles sets work-item granularity: an item spans whole drives
// totalling about this many tiles of rows. Big enough to amortize the
// claim (one atomic bump per ~itemTiles·TileRows samples), small enough
// that stealing keeps every worker busy to the end of the sweep.
const itemTiles = 4

// Config parameterizes one sweep.
type Config struct {
	// Voters is N, the detection window (values < 1 behave as 1, as the
	// detectors do).
	Voters int
	// Threshold is the per-sample vote cut (voting) or the alarm cut on
	// the window mean (Mean). Must lie in [-1, 1], as the detectors
	// require.
	Threshold float64
	// Mean selects the health-degree (mean-threshold) sweep instead of
	// the voting sweep.
	Mean bool
	// Workers caps the scan goroutines (0 = GOMAXPROCS). Results are
	// identical for every value.
	Workers int
}

// Stats counts one shard's (or the whole sweep's) work. All fields
// except Steals are deterministic: a drive's contribution always lands
// in its serial-hashed shard, whatever worker scanned it. Steals counts
// work items claimed by non-home workers and depends on goroutine
// timing — it is a load-balance diagnostic, excluded from the
// determinism guarantee.
type Stats struct {
	// Drives is the number of drives scanned.
	Drives int64
	// Alarms is the number of drives whose outcome alarmed.
	Alarms int64
	// Samples is the number of samples scored (a sweep scores whole
	// series; there is no early exit).
	Samples int64
	// NaNExcluded counts samples excluded from window arithmetic: rows
	// dropped upstream of the series (BinnedSeries.Dropped) plus NaN
	// scores the window sweeps skipped.
	NaNExcluded int64
	// Steals counts work items executed by workers away from their home
	// shard. Nondeterministic; see the type comment.
	Steals int64
}

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.Drives += o.Drives
	s.Alarms += o.Alarms
	s.Samples += o.Samples
	s.NaNExcluded += o.NaNExcluded
	s.Steals += o.Steals
}

// Canon returns the stats with the nondeterministic Steals counter
// zeroed — the canonical form covered by the determinism guarantee.
// Comparisons of sweep results across worker counts, shard layouts, or
// snapshot/restore cycles should compare Canon() values; comparing raw
// Stats asserts goroutine scheduling, which no API promises.
func (s Stats) Canon() Stats {
	s.Steals = 0
	return s
}

// Result is one sweep's output.
type Result struct {
	// Outcomes holds each drive's outcome at its own index — identical
	// for every worker and shard count.
	Outcomes []detect.Outcome
	// Shards holds per-shard stats in shard order.
	Shards []Stats
	// Total is the fold of Shards in shard order.
	Total Stats
	// Kernel names the partition-kernel tier the sweep's scoring ran on
	// ("scalar" or "avx2") — diagnostic only; both tiers are
	// bit-identical, so Outcomes and the deterministic stats never vary
	// with it.
	Kernel string
}

// driveRef locates one drive inside its shard.
type driveRef struct {
	// index is the drive's fleet-wide index (its Outcomes slot).
	index int32
	// rowLo, rowHi is the drive's row range in the shard's tiled matrix.
	rowLo, rowHi int32
	// dropped carries the source series' dropped-record count.
	dropped int32
	// hours are the drive's sample hours.
	hours []int
}

// workItem is one claimable unit: a whole-drive range of a shard.
type workItem struct {
	driveLo, driveHi int32
	rowLo, rowHi     int32
}

// shardStats is the concurrently-bumped form of Stats.
type shardStats struct {
	drives, alarms, samples, nan, steals atomic.Int64
}

func (s *shardStats) snapshot() Stats {
	return Stats{
		Drives:      s.drives.Load(),
		Alarms:      s.alarms.Load(),
		Samples:     s.samples.Load(),
		NaNExcluded: s.nan.Load(),
		Steals:      s.steals.Load(),
	}
}

func (s *shardStats) reset() {
	s.drives.Store(0)
	s.alarms.Store(0)
	s.samples.Store(0)
	s.nan.Store(0)
	s.steals.Store(0)
}

// shard owns one partition of the fleet: its tiled code matrix, its
// drives in fleet order, and its bounded work queue (a fixed item array
// drained by the atomic cursor).
type shard struct {
	tiles  *dataset.TiledMatrix
	drives []driveRef
	items  []workItem
	next   atomic.Int64
	stats  shardStats
}

// Fleet is a prepared (sharded, tiled) fleet, reusable across Run calls
// — prepare once, sweep per model or per threshold.
type Fleet struct {
	shards      []*shard
	numDrives   int
	numFeatures int
	numRows     int
}

// NumDrives returns the fleet size.
func (f *Fleet) NumDrives() int { return f.numDrives }

// NumRows returns the total sample count across the fleet.
func (f *Fleet) NumRows() int { return f.numRows }

// NumShards returns P.
func (f *Fleet) NumShards() int { return len(f.shards) }

// shardOf serial-hashes a drive index onto one of p shards (splitmix64
// finalizer), so shard membership is a pure function of the index —
// stable across runs, independent of worker scheduling.
func shardOf(drive, p int) int {
	z := uint64(drive) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(p))
}

// resolveShards validates and defaults a requested shard count.
func resolveShards(shards int) (int, error) {
	if shards < 0 {
		return 0, fmt.Errorf("sweep: shard count must be non-negative, got %d", shards)
	}
	if shards == 0 {
		return DefaultShards, nil
	}
	return shards, nil
}

// Prepare quantizes every drive's series onto bm's code space and packs
// the fleet into per-shard feature-major tiled matrices — the sweep's
// "quantize" phase, paid once per Fleet rather than once per drive per
// scan. shards is P (0 = DefaultShards).
func Prepare(bm *dataset.BinnedMatrix, series []detect.Series, shards int) (*Fleet, error) {
	if bm == nil {
		return nil, errors.New("sweep: Prepare needs a binned matrix")
	}
	if bm.NumFeatures < 1 {
		return nil, errors.New("sweep: Prepare needs a matrix with at least one feature")
	}
	p, err := resolveShards(shards)
	if err != nil {
		return nil, err
	}
	nf := bm.NumFeatures
	for di := range series {
		for ri, row := range series[di].X {
			if len(row) < nf {
				return nil, fmt.Errorf("sweep: drive %d row %d has %d of %d features",
					di, ri, len(row), nf)
			}
		}
	}
	var fleet *Fleet
	pprof.Do(context.Background(), pprof.Labels("sweep_phase", "quantize"), func(context.Context) {
		fleet, err = assemble(p, nf, len(series),
			func(i int) int { return len(series[i].X) },
			func(i int) (hours []int, dropped int) { return series[i].Hours, series[i].Dropped },
			func(i int, tm *dataset.TiledMatrix, rowAt int, scratch []uint8) {
				for _, x := range series[i].X {
					bm.QuantizeRow(x, scratch)
					tm.SetRow(rowAt, scratch)
					rowAt++
				}
			})
	})
	return fleet, err
}

// PrepareBinned packs an already-quantized fleet (detect.QuantizeSeries
// or detect.QuantizeFleet output) into per-shard tiled matrices. Every
// code row must have the same width.
func PrepareBinned(series []detect.BinnedSeries, shards int) (*Fleet, error) {
	p, err := resolveShards(shards)
	if err != nil {
		return nil, err
	}
	nf := 0
	for di := range series {
		if len(series[di].Codes) > 0 {
			nf = len(series[di].Codes[0])
			break
		}
	}
	if nf < 1 {
		nf = 1 // no rows anywhere: width is arbitrary, tiles stay empty
	}
	for di := range series {
		for ri, row := range series[di].Codes {
			if len(row) != nf {
				return nil, fmt.Errorf("sweep: drive %d row %d has %d codes, want %d",
					di, ri, len(row), nf)
			}
		}
	}
	var fleet *Fleet
	pprof.Do(context.Background(), pprof.Labels("sweep_phase", "quantize"), func(context.Context) {
		fleet, err = assemble(p, nf, len(series),
			func(i int) int { return len(series[i].Codes) },
			func(i int) (hours []int, dropped int) { return series[i].Hours, series[i].Dropped },
			func(i int, tm *dataset.TiledMatrix, rowAt int, _ []uint8) {
				for _, row := range series[i].Codes {
					tm.SetRow(rowAt, row)
					rowAt++
				}
			})
	})
	return fleet, err
}

// assemble builds the sharded fleet: shard membership by serial hash,
// rows packed in fleet order within each shard, work items cut at drive
// boundaries every ~itemTiles tiles. Deterministic: a pure function of
// the fleet and P.
func assemble(p, nf, n int,
	rowsOf func(i int) int,
	meta func(i int) (hours []int, dropped int),
	fill func(i int, tm *dataset.TiledMatrix, rowAt int, scratch []uint8),
) (*Fleet, error) {
	f := &Fleet{shards: make([]*shard, p), numDrives: n, numFeatures: nf}
	rows := make([]int, p)
	drives := make([]int, p)
	for i := 0; i < n; i++ {
		s := shardOf(i, p)
		rows[s] += rowsOf(i)
		drives[s]++
		f.numRows += rowsOf(i)
	}
	for s := 0; s < p; s++ {
		tm, err := dataset.NewTiledMatrix(rows[s], nf)
		if err != nil {
			return nil, err
		}
		f.shards[s] = &shard{tiles: tm, drives: make([]driveRef, 0, drives[s])}
	}
	scratch := make([]uint8, nf)
	cursor := make([]int, p)
	for i := 0; i < n; i++ {
		si := shardOf(i, p)
		s := f.shards[si]
		nr := rowsOf(i)
		lo := cursor[si]
		fill(i, s.tiles, lo, scratch)
		cursor[si] = lo + nr
		hours, dropped := meta(i)
		s.drives = append(s.drives, driveRef{
			index: int32(i), rowLo: int32(lo), rowHi: int32(lo + nr),
			dropped: int32(dropped), hours: hours,
		})
	}
	target := itemTiles * dataset.TileRows
	for _, s := range f.shards {
		dlo := 0
		for dlo < len(s.drives) {
			dhi := dlo
			rlo := s.drives[dlo].rowLo
			for dhi < len(s.drives) && int(s.drives[dhi].rowHi-rlo) < target {
				dhi++
			}
			if dhi < len(s.drives) {
				dhi++ // the drive that crossed the target closes the item
			}
			s.items = append(s.items, workItem{
				driveLo: int32(dlo), driveHi: int32(dhi),
				rowLo: rlo, rowHi: s.drives[dhi-1].rowHi,
			})
			dlo = dhi
		}
	}
	return f, nil
}

// scratch is one worker's reusable score buffer.
type scratch struct {
	scores []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Run sweeps a prepared fleet with the given model and returns outcomes
// plus per-shard stats. failHours[i] is drive i's failure instant (-1 or
// a nil slice for good drives). The same Fleet can be Run repeatedly;
// per-run state lives in the Result and in the shard cursors, which
// Run resets up front.
//
// Run must not be invoked concurrently on one Fleet (the cursors are
// shared); sweeps of different Fleets are independent.
func Run(model TiledPredictor, fleet *Fleet, failHours []int, cfg Config) (*Result, error) {
	if model == nil {
		return nil, errors.New("sweep: Run needs a model")
	}
	if fleet == nil {
		return nil, errors.New("sweep: Run needs a prepared fleet")
	}
	if failHours != nil && len(failHours) != fleet.numDrives {
		return nil, fmt.Errorf("sweep: %d failHours for %d drives", len(failHours), fleet.numDrives)
	}
	if math.IsNaN(cfg.Threshold) || cfg.Threshold < -1 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("sweep: threshold %v outside [-1, 1]", cfg.Threshold)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sweep: workers must be non-negative, got %d", cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	voters := cfg.Voters
	if voters < 1 {
		voters = 1
	}
	for _, s := range fleet.shards {
		s.next.Store(0)
		s.stats.reset()
	}
	out := make([]detect.Outcome, fleet.numDrives)
	// The kernel label distinguishes profiles of the same phase taken
	// under different dispatch tiers (AVX2 hosts vs scalar ones).
	kern := cpu.Active().String()
	var wg sync.WaitGroup
	pprof.Do(context.Background(), pprof.Labels("sweep_phase", "partition", "kernel", kern), func(context.Context) {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(home int) {
				defer wg.Done()
				runWorker(fleet, home, model, out, failHours, voters, cfg.Threshold, cfg.Mean)
			}(w)
		}
		wg.Wait()
	})
	res := &Result{Outcomes: out, Shards: make([]Stats, len(fleet.shards)), Kernel: kern}
	pprof.Do(context.Background(), pprof.Labels("sweep_phase", "alarm-merge", "kernel", kern), func(context.Context) {
		for i, s := range fleet.shards {
			res.Shards[i] = s.stats.snapshot()
			res.Total.add(res.Shards[i])
		}
	})
	return res, nil
}

// runWorker drains the worker's home shard, then steals from the other
// shards in rotation until no items remain anywhere.
func runWorker(f *Fleet, w int, model TiledPredictor, out []detect.Outcome,
	failHours []int, voters int, threshold float64, mean bool) {
	sc := scratchPool.Get().(*scratch)
	p := len(f.shards)
	home := w % p
	for k := 0; k < p; k++ {
		s := f.shards[(home+k)%p]
		for {
			i := int(s.next.Add(1)) - 1
			if i >= len(s.items) {
				break
			}
			if k > 0 {
				s.stats.steals.Add(1)
			}
			runItem(model, s, &s.items[i], sc, out, failHours, voters, threshold, mean)
		}
	}
	scratchPool.Put(sc)
}

// runItem scores one work item's row range through the tiled kernels,
// then replays the shared window sweep over each drive's score segment
// and writes the outcome at the drive's own index. Stats accumulate
// locally and land on the item's (deterministic) shard in one batch of
// atomic adds.
//
//hddlint:noalloc
func runItem(model TiledPredictor, s *shard, it *workItem, sc *scratch,
	out []detect.Outcome, failHours []int, voters int, threshold float64, mean bool) {
	n := int(it.rowHi - it.rowLo)
	if cap(sc.scores) < n {
		//hddlint:ignore hotalloc cold path: pooled worker scratch grows to the largest item once, then every item reuses it
		sc.scores = make([]float64, n)
	}
	scores := sc.scores[:n]
	if n > 0 {
		model.PredictTiledRange(s.tiles, int(it.rowLo), int(it.rowHi), scores)
	}
	var drives, alarms, samples, nan int64
	for di := it.driveLo; di < it.driveHi; di++ {
		d := &s.drives[di]
		seg := scores[d.rowLo-it.rowLo : d.rowHi-it.rowLo]
		var idx, excl int
		if mean {
			idx, excl = detect.MeanAlarm(seg, voters, threshold)
		} else {
			idx, excl = detect.VoteAlarm(seg, voters, threshold)
		}
		fh := -1
		if failHours != nil {
			fh = failHours[d.index]
		}
		o := detect.AlarmOutcome(d.hours, idx, fh)
		out[d.index] = o
		drives++
		samples += int64(len(seg))
		nan += int64(excl) + int64(d.dropped)
		if o.Alarmed {
			alarms++
		}
	}
	s.stats.drives.Add(drives)
	s.stats.alarms.Add(alarms)
	s.stats.samples.Add(samples)
	s.stats.nan.Add(nan)
}
