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
//
// A Fleet also keeps one vote class per sample from its last voting Run
// (detect.EncodeVotes), so sweeping one model over one fleet at several
// window sizes — the paper's Figure 2 sweep of N — scores the fleet once
// and replays the classes through detect.VoteAlarm after that.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"hddcart/internal/cpu"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/par"
)

// TiledPredictor scores rows [lo, hi) of a feature-major tiled code
// matrix into dst[:hi-lo]. cart.BinnedTree and forest.Binned implement
// it, each bit-identical to its per-row Predict — the contract that
// makes sweep outcomes equal a per-row scan's.
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
	// Samples is the number of samples swept: every sample of every
	// drive, as a sweep has no early exit. A replayed Run (see Run)
	// counts the samples it swept, though none was scored again.
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
	// with it. It is empty on a replayed Run, where no kernel ran.
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
// drives in fleet order, its bounded work queue (a fixed item array
// drained by the atomic cursor), and its part of the fleet's vote
// column: one detect.EncodeVotes class per row, allocated by the first
// voting Run that records one.
type shard struct {
	tiles  *dataset.TiledMatrix
	drives []driveRef
	items  []workItem
	next   atomic.Int64
	stats  shardStats
	votes  []uint8
}

// Fleet is a prepared (sharded, tiled) fleet, reusable across Run calls
// — prepare once, sweep per model or per threshold. It also remembers
// the vote classes of its last recorded voting Run, so a later voting
// Run of the same model at the same threshold replays them instead of
// scoring the fleet again (see Run). The column costs one byte per
// sample, and the Fleet keeps the model that scored it reachable.
type Fleet struct {
	shards      []*shard
	numDrives   int
	numFeatures int
	numRows     int
	// voteModel and voteThreshold key the shards' vote columns: the
	// model and threshold whose classes they hold (nil model: none).
	voteModel     TiledPredictor
	voteThreshold float64
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

// PrepareBinned packs an already-quantized fleet (detect.QuantizeFleet
// output) into per-shard tiled matrices. Every code row must have the
// same width.
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
// boundaries every ~itemTiles tiles. The drive lists, and so every
// drive's rows in its shard's tiles, are laid out serially first; the
// rows are then filled on GOMAXPROCS goroutines, each taking a run of
// consecutive drives with its own scratch row. A run walks the fleet in
// drive order, the order its series sit in memory (a walk shard by shard
// would visit them 1/P apart). Every drive owns its rows, so the packed
// bytes are a pure function of the fleet and P, whatever the schedule.
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
	cursor := make([]int, p)
	rowAt := make([]int32, n) // drive i's first row in its shard
	for i := 0; i < n; i++ {
		si := shardOf(i, p)
		s := f.shards[si]
		nr := rowsOf(i)
		lo := cursor[si]
		cursor[si] = lo + nr
		rowAt[i] = int32(lo)
		hours, dropped := meta(i)
		s.drives = append(s.drives, driveRef{
			index: int32(i), rowLo: int32(lo), rowHi: int32(lo + nr),
			dropped: int32(dropped), hours: hours,
		})
	}
	workers := runtime.GOMAXPROCS(0)
	runs := min(n, 4*workers)
	par.For(runs, workers, func(r int) {
		scratch := make([]uint8, nf)
		for i := r * n / runs; i < (r+1)*n/runs; i++ {
			fill(i, f.shards[shardOf(i, p)].tiles, int(rowAt[i]), scratch)
		}
	})
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

// passMode is how a Run obtains its vote classes or scores.
type passMode uint8

const (
	// scoreOnly scores every item and keeps nothing: mean-rule runs and
	// models that cannot key the vote column.
	scoreOnly passMode = iota
	// record scores every item and writes its vote classes to the column.
	record
	// replay expands the column into proxy scores; nothing is scored.
	replay
)

// pass is one Run's read-only state, shared by its workers.
type pass struct {
	model     TiledPredictor
	out       []detect.Outcome
	failHours []int
	voters    int
	threshold float64
	mean      bool
	mode      passMode
}

// Run sweeps a prepared fleet with the given model and returns outcomes
// plus per-shard stats. failHours[i] is drive i's failure instant (-1 or
// a nil slice for good drives). The same Fleet can be Run repeatedly;
// per-run state lives in the Result and in the shard cursors, which
// Run resets up front.
//
// A voting Run with a pointer model records every sample's vote class
// (detect.EncodeVotes) in the fleet; a later voting Run with the same
// pointer and bit-identical threshold replays those classes through
// detect.VoteAlarm instead of scoring, at any Voters and Workers, with
// identical outcomes and stats. A model must therefore not change while
// a Fleet holds it: to sweep a changed model, pass a new pointer. Mean
// runs (Config.Mean) always score, as the mean rule reads score values,
// and leave the recorded classes as they were; so do models that are
// not pointers.
//
// Run must not be invoked concurrently on one Fleet (the cursors and the
// vote column are shared); sweeps of different Fleets are independent.
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
	ps := &pass{
		model: model, out: make([]detect.Outcome, fleet.numDrives), failHours: failHours,
		voters: max(cfg.Voters, 1), threshold: cfg.Threshold, mean: cfg.Mean,
		mode: fleet.voteMode(model, cfg),
	}
	if ps.mode == record {
		// Unkey the column first: a Run that stops part way leaves no key
		// naming half-written classes.
		fleet.voteModel = nil
	}
	for _, s := range fleet.shards {
		s.next.Store(0)
		s.stats.reset()
		if ps.mode == record && s.votes == nil {
			s.votes = make([]uint8, s.tiles.NumRows)
		}
	}
	// The kernel label distinguishes profiles of the same phase taken
	// under different dispatch tiers (AVX2 hosts vs scalar ones); a replay
	// runs no kernel.
	kern := cpu.Active().String()
	sweepLabels := pprof.Labels("sweep_phase", "partition", "kernel", kern)
	mergeLabels := pprof.Labels("sweep_phase", "alarm-merge", "kernel", kern)
	if ps.mode == replay {
		kern = ""
		sweepLabels = pprof.Labels("sweep_phase", "replay")
		mergeLabels = pprof.Labels("sweep_phase", "alarm-merge")
	}
	var wg sync.WaitGroup
	pprof.Do(context.Background(), sweepLabels, func(context.Context) {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(home int) {
				defer wg.Done()
				runWorker(fleet, home, ps)
			}(w)
		}
		wg.Wait()
	})
	if ps.mode == record {
		fleet.voteModel, fleet.voteThreshold = model, cfg.Threshold
	}
	res := &Result{Outcomes: ps.out, Shards: make([]Stats, len(fleet.shards)), Kernel: kern}
	pprof.Do(context.Background(), mergeLabels, func(context.Context) {
		for i, s := range fleet.shards {
			res.Shards[i] = s.stats.snapshot()
			res.Total.add(res.Shards[i])
		}
	})
	return res, nil
}

// voteMode picks how a Run of model under cfg gets its vote classes. The
// column is keyed on pointer models only: comparing interface values
// panics when their dynamic type is not comparable, and even a
// comparable struct panics if an interface field holds such a value.
// The threshold is compared by its bits, so -0 and 0 key different
// columns (they would hold the same classes; the second scores once
// more).
func (f *Fleet) voteMode(model TiledPredictor, cfg Config) passMode {
	if cfg.Mean || reflect.TypeOf(model).Kind() != reflect.Pointer {
		return scoreOnly
	}
	if f.voteModel == model && math.Float64bits(f.voteThreshold) == math.Float64bits(cfg.Threshold) {
		return replay
	}
	return record
}

// runWorker drains the worker's home shard, then steals from the other
// shards in rotation until no items remain anywhere.
func runWorker(f *Fleet, w int, ps *pass) {
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
			runItem(ps, s, &s.items[i], sc)
		}
	}
	scratchPool.Put(sc)
}

// runItem fills the worker's scratch with one work item's scores — from
// the tiled kernels, or as proxies expanded from the vote column on a
// replay — then runs the shared window sweep over each drive's segment
// and writes the outcome at the drive's own index. The window sweeps
// compact their input in place, so they only ever see the scratch, never
// the column. Stats accumulate locally and land on the item's
// (deterministic) shard in one batch of atomic adds.
//
//hddlint:noalloc
func runItem(ps *pass, s *shard, it *workItem, sc *scratch) {
	n := int(it.rowHi - it.rowLo)
	if cap(sc.scores) < n {
		//hddlint:ignore hotalloc cold path: pooled worker scratch grows to the largest item once, then every item reuses it
		sc.scores = make([]float64, n)
	}
	scores := sc.scores[:n]
	switch {
	case ps.mode == replay:
		detect.DecodeVotes(scores, s.votes[it.rowLo:it.rowHi])
	case n > 0:
		ps.model.PredictTiledRange(s.tiles, int(it.rowLo), int(it.rowHi), scores)
		if ps.mode == record {
			detect.EncodeVotes(s.votes[it.rowLo:it.rowHi], scores, ps.threshold)
		}
	}
	var drives, alarms, samples, nan int64
	for di := it.driveLo; di < it.driveHi; di++ {
		d := &s.drives[di]
		seg := scores[d.rowLo-it.rowLo : d.rowHi-it.rowLo]
		var idx, excl int
		if ps.mean {
			idx, excl = detect.MeanAlarm(seg, ps.voters, ps.threshold)
		} else {
			idx, excl = detect.VoteAlarm(seg, ps.voters, ps.threshold)
		}
		fh := -1
		if ps.failHours != nil {
			fh = ps.failHours[d.index]
		}
		o := detect.AlarmOutcome(d.hours, idx, fh)
		ps.out[d.index] = o
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
