package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
	"hddcart/internal/sweep"
	"hddcart/internal/trace"
)

// Workload sizes at scale 1, chosen so one pass takes about half a second
// on the two-CPU benchmark host and a whole run stays under 30 s.
const (
	// evaluate-paper: a gendata-shaped CSV (every drive's full trace).
	paperGood, paperFailed = 80, 30
	// evaluate-fleet: a monitoring-shaped CSV, fleetRows hourly rows per
	// drive, all inside the evaluation window (hours ≥ 117 of week one).
	fleetDrives, fleetRows, fleetFirstHour = 2500, 38, 130

	evalVoters = 11
	// minPasses is the fewest measured passes any workload runs.
	minPasses = 3
)

// scaled applies the run's scale to a size, keeping at least one.
func (e *env) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*e.cfg.scale)))
}

// evalInputs is one evaluate workload's set-up state.
type evalInputs struct {
	csv, model string
	csvBytes   int64
	csvRows    int
	trainS     float64
	ref        evalRef
}

func runEvaluatePaper(e *env) error {
	in, err := setupRepeated(e, func() (*evalInputs, string, error) {
		sim, err := simulatePopulation(e.cfg.seed, e.scaled(paperGood), e.scaled(paperFailed))
		if err != nil {
			return nil, "", err
		}
		return writeEvalInputs(e, "paper", func(w *csvWriter) (int, error) {
			rows := 0
			for i, d := range sim.drives {
				meta := trace.DriveMeta{Serial: d.Serial, Family: d.Family, Failed: d.Failed, FailHour: d.FailHour}
				if err := w.tw.WriteDrive(meta, sim.traces[i]); err != nil {
					return 0, err
				}
				rows += len(sim.traces[i])
			}
			return rows, nil
		}, false)
	}, func(*evalInputs) {})
	if err != nil {
		return err
	}
	return measureEvaluate(e, in, false)
}

func runEvaluateFleet(e *env) error {
	in, err := setupRepeated(e, func() (*evalInputs, string, error) {
		streams, err := windowFleet(e.cfg.seed, e.scaled(fleetDrives), fleetRows, fleetFirstHour)
		if err != nil {
			return nil, "", err
		}
		return writeEvalInputs(e, "fleet", func(w *csvWriter) (int, error) {
			rows := 0
			for _, s := range streams {
				meta := trace.DriveMeta{Serial: s.serial, Family: s.family, Failed: s.failed, FailHour: s.failHour}
				if err := w.tw.WriteDrive(meta, s.recs); err != nil {
					return 0, err
				}
				rows += len(s.recs)
			}
			return rows, nil
		}, true)
	}, func(*evalInputs) {})
	if err != nil {
		return err
	}
	return measureEvaluate(e, in, true)
}

// writeEvalInputs writes the CSV (rows come from write), trains the CT,
// writes the model file and computes the reference from a read-back of
// the CSV.
func writeEvalInputs(e *env, name string, write func(*csvWriter) (int, error), sweepPath bool) (*evalInputs, string, error) {
	in := &evalInputs{
		csv:   filepath.Join(e.cfg.workdir, name+".csv"),
		model: filepath.Join(e.cfg.workdir, name+"-ct.json"),
	}
	w, err := createCSV(in.csv)
	if err != nil {
		return nil, "", err
	}
	in.csvRows, err = write(w)
	csvSum, cerr := w.close()
	if err = errors.Join(err, cerr); err != nil {
		return nil, "", err
	}
	st, err := os.Stat(in.csv)
	if err != nil {
		return nil, "", err
	}
	in.csvBytes = st.Size()
	ds, err := trainingSet(e)
	if err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	tree, err := trainCT(ds)
	if err != nil {
		return nil, "", err
	}
	in.trainS = time.Since(t0).Seconds()
	model, err := writeModel(in.model, tree)
	if err != nil {
		return nil, "", err
	}
	in.ref, err = evaluateReference(in.csv, tree, sweepPath)
	if err != nil {
		return nil, "", err
	}
	return in, digestOf(csvSum, model), nil
}

// evalRef is what a correct `hddpred evaluate` pass prints, computed
// independently of the CLI's scoring path.
type evalRef struct {
	res  eval.Result
	line string
	// quantMismatch counts drives whose -sweep outcome differs from the
	// float path's: -sweep quantizes lossily, by design.
	quantMismatch int
}

// evaluateReference reads the CSV back and scores it with the pointer
// tree (the float path's reference). For -sweep the reference is the
// sweep's own semantics computed row by row: the same bins, the binned
// tree's per-row Predict and the shared vote window, with no tiling,
// sharding or batching.
func evaluateReference(csvPath string, tree *cart.Tree, sweepPath bool) (evalRef, error) {
	drives, err := readTraces(csvPath)
	if err != nil {
		return evalRef{}, err
	}
	series, failHours, isFailed := evalSeries(drives)
	floatOut := detect.ScanBatch(&detect.Voting{Model: tree, Voters: evalVoters}, series, failHours, 1)
	ref := evalRef{res: countOutcomes(floatOut, isFailed)}
	if sweepPath {
		bm, err := dataset.BinMatrix(seriesRows(series), dataset.MaxBinsLimit)
		if err != nil {
			return evalRef{}, err
		}
		bt, err := tree.Compile().CompileBinned(bm)
		if err != nil {
			return evalRef{}, err
		}
		codes := make([]uint8, bm.NumFeatures)
		binOut := make([]detect.Outcome, len(series))
		for i, s := range series {
			scores := make([]float64, len(s.X))
			for j, x := range s.X {
				bm.QuantizeRow(x, codes)
				scores[j] = bt.Predict(codes)
			}
			idx, _ := detect.VoteAlarm(scores, evalVoters, 0)
			binOut[i] = detect.AlarmOutcome(s.Hours, idx, failHours[i])
			if binOut[i] != floatOut[i] {
				ref.quantMismatch++
			}
		}
		ref.res = countOutcomes(binOut, isFailed)
	}
	ref.line = ref.res.String()
	return ref, nil
}

// readTraces decodes a trace CSV as hddpred does.
func readTraces(path string) ([]trace.DriveTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// evalSeries selects and extracts the evaluation drives exactly as
// `hddpred evaluate` does with its default flags: failed drives outside
// the seed-1 training split over their whole trace, good drives over the
// test part of week one.
func evalSeries(drives []trace.DriveTrace) (series []detect.Series, failHours []int, isFailed []bool) {
	features := smart.CriticalFeatures()
	for i, d := range drives {
		if d.Meta.Failed {
			if dataset.IsTrainFailedDrive(1, i, 0.7) {
				continue
			}
			series = append(series, detect.ExtractSeries(features, d.Records, 0, len(d.Records)))
			failHours = append(failHours, d.Meta.FailHour)
			isFailed = append(isFailed, true)
			continue
		}
		from, to, ok := dataset.TestStart(d.Records, 0, simulate.HoursPerWeek, 0.7)
		if !ok {
			continue
		}
		series = append(series, detect.ExtractSeries(features, d.Records, from, to))
		failHours = append(failHours, -1)
		isFailed = append(isFailed, false)
	}
	return series, failHours, isFailed
}

func seriesRows(series []detect.Series) [][]float64 {
	var rows [][]float64
	for i := range series {
		rows = append(rows, series[i].X...)
	}
	return rows
}

func countOutcomes(outs []detect.Outcome, isFailed []bool) eval.Result {
	var c eval.Counter
	for i, o := range outs {
		if isFailed[i] {
			c.AddFailed(o)
		} else {
			c.AddGood(o.Alarmed)
		}
	}
	return c.Result()
}

// evalLine matches the counts of evaluate's result line.
var evalLine = regexp.MustCompile(`\(good (\d+)/(\d+), failed (\d+)/(\d+)\)`)

// check compares one pass's stdout with the reference and returns the
// drives it got wrong: the absolute differences of the four counts, or 1
// when the counts agree but the line (FAR, FDR, TIA) does not. Unreadable
// output fails every drive.
func (ref evalRef) check(stdout []byte) int64 {
	drives := int64(ref.res.GoodTotal + ref.res.FailedTotal)
	line := strings.TrimSpace(string(stdout))
	m := evalLine.FindStringSubmatch(line)
	if m == nil {
		return drives
	}
	want := []int{ref.res.GoodAlarmed, ref.res.GoodTotal, ref.res.FailedDetected, ref.res.FailedTotal}
	var diff int64
	for i, w := range want {
		got, err := strconv.Atoi(m[i+1])
		if err != nil {
			return drives
		}
		diff += int64(max(got-w, w-got))
	}
	if diff == 0 && line != ref.line {
		diff = 1
	}
	return min(diff, drives)
}

// measureEvaluate runs hddpred evaluate passes until the run's time is up.
// A traced run follows each CLI pass with two in-process replays of the
// CLI's stage calls on the same files, one with spans and one without.
func measureEvaluate(e *env, in *evalInputs, sweepPath bool) error {
	args := []string{"evaluate", "-data", in.csv, "-m", in.model, "-voters", strconv.Itoa(evalVoters)}
	if sweepPath {
		args = append(args, "-sweep")
	}
	drives := int64(in.ref.res.GoodTotal + in.ref.res.FailedTotal)
	if err := settle(e.cfg.workdir); err != nil {
		return err
	}
	parentRSS, err := procStatusMB("self", "VmRSS")
	if err != nil {
		return err
	}
	var walls, rss, staged, tracedWalls, plainWalls, steals, workers1 []float64
	var ledgers []passLedger
	var last replayOut
	start := time.Now()
	for pass := 0; e.measuring(start, pass, minPasses); pass++ {
		if err := e.sampleRef(false); err != nil {
			return err
		}
		r := runChild(e.cfg.hddpred, args...)
		if r.err != nil {
			e.logf("pass %d failed: %v", pass, r.err)
			e.count(drives, drives)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.maxRSS)
		e.count(drives, in.ref.check(r.stdout))
		if !e.cfg.traced {
			continue
		}
		e.tr.on = true
		last, err = replayEvaluate(e.tr, pass, in, sweepPath)
		if err != nil {
			return err
		}
		l := e.tr.ledger(last.root)
		ledgers = append(ledgers, l)
		staged = append(staged, l.staged().Seconds())
		tracedWalls = append(tracedWalls, last.wall.Seconds())
		steals = append(steals, float64(last.steals))
		e.tr.on = false
		plain, err := replayEvaluate(e.tr, pass, in, sweepPath)
		if err != nil {
			return err
		}
		plainWalls = append(plainWalls, plain.wall.Seconds())
		if sweepPath {
			workers1 = append(workers1, plain.workers1.Seconds())
		}
		runtime.GC() // collect the replays' garbage now, not during the next CLI pass
	}
	if len(walls) == 0 {
		return errors.New("no evaluate pass succeeded")
	}
	pass := median(walls)
	if err := e.reportTimes(pass*1000, float64(in.csvRows)/pass); err != nil {
		return err
	}
	e.e2e["max_rss_mb"] = median(rss)
	e.logf("%d passes: pass %.3fs median (quartiles %.3f, %.3f; range %.3f–%.3f), %.0f rows/s, max RSS %.1f MB (hddpred evaluate %s)",
		len(walls), pass, quantile(walls, 0.25), quantile(walls, 0.75), quantile(walls, 0), quantile(walls, 1),
		float64(in.csvRows)/pass, median(rss), strings.Join(args[1:], " "))
	if !e.cfg.traced {
		return nil
	}
	stages := stageMedians(ledgers)
	for _, name := range []string{"cmd.model_load", "trace.decode", "detect.extract", "detect.scanbatch",
		"dataset.binmatrix", "cart.compile", "sweep.prepare", "sweep.run", "eval.count"} {
		e.layer[name+"_s"] = stages[name]
	}
	e.layer["bench.samples"] = float64(len(walls))
	e.layer["ledger.coverage"] = median(staged) / pass
	e.layer["ledger.overhead"] = median(tracedWalls)/median(plainWalls) - 1
	e.layer["cmd.unaccounted_s"] = pass - median(plainWalls)
	e.layer["cmd.parent_rss_mb"] = parentRSS
	e.layer["cart.train_s"] = in.trainS
	e.layer["trace.rows"] = float64(last.rows)
	e.layer["trace.mb_per_s"] = float64(in.csvBytes) / (1 << 20) / stages["trace.decode"]
	e.layer["trace.rows_used_share"] = float64(last.samples) / float64(last.rows)
	e.layer["detect.samples"] = float64(last.samples)
	e.layer["eval.quant_mismatch"] = float64(in.ref.quantMismatch)
	if sweepPath {
		e.layer["sweep.steals"] = median(steals)
		e.layer["sweep.run_workers1_s"] = median(workers1)
	}
	return nil
}

// replayOut is one in-process replay of an evaluate pass.
type replayOut struct {
	wall          time.Duration
	root          int
	rows, samples int
	steals        int64
	workers1      time.Duration // the sweep re-run on one worker, outside the pass
}

// replayEvaluate repeats cmdEvaluate's stage calls in process, one span
// per stage, and checks that they reproduce the reference line.
func replayEvaluate(tr *tracer, pass int, in *evalInputs, sweepPath bool) (replayOut, error) {
	var out replayOut
	t0 := time.Now()
	root := tr.begin("evaluate.pass", -1, pass)
	sp := tr.begin("cmd.model_load", root, pass)
	data, err := os.ReadFile(in.model)
	if err != nil {
		return out, err
	}
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return out, err
	}
	tr.end(sp, 1)

	sp = tr.begin("trace.decode", root, pass)
	drives, err := readTraces(in.csv)
	if err != nil {
		return out, err
	}
	for _, d := range drives {
		out.rows += len(d.Records)
	}
	tr.end(sp, int64(out.rows))

	sp = tr.begin("detect.extract", root, pass)
	series, failHours, isFailed := evalSeries(drives)
	for i := range series {
		out.samples += len(series[i].X)
	}
	tr.end(sp, int64(out.samples))

	workers := runtime.GOMAXPROCS(0)
	var outcomes []detect.Outcome
	var bt *cart.BinnedTree
	var fleet *sweep.Fleet
	if !sweepPath {
		sp = tr.begin("cart.compile", root, pass)
		ct := mf.Tree.Compile()
		tr.end(sp, 1)
		sp = tr.begin("detect.scanbatch", root, pass)
		outcomes = detect.ScanBatch(&detect.Voting{Model: ct, Voters: evalVoters}, series, failHours, workers)
		tr.end(sp, int64(out.samples))
	} else {
		sp = tr.begin("dataset.binmatrix", root, pass)
		bm, err := dataset.BinMatrix(seriesRows(series), dataset.MaxBinsLimit)
		if err != nil {
			return out, err
		}
		tr.end(sp, int64(out.samples))
		sp = tr.begin("cart.compile", root, pass)
		bt, err = mf.Tree.Compile().CompileBinned(bm)
		if err != nil {
			return out, err
		}
		tr.end(sp, 1)
		sp = tr.begin("sweep.prepare", root, pass)
		fleet, err = sweep.Prepare(bm, series, 0)
		if err != nil {
			return out, err
		}
		tr.end(sp, int64(out.samples))
		sp = tr.begin("sweep.run", root, pass)
		res, err := sweep.Run(bt, fleet, failHours, sweep.Config{Voters: evalVoters, Workers: workers})
		if err != nil {
			return out, err
		}
		tr.end(sp, res.Total.Samples)
		outcomes, out.steals = res.Outcomes, res.Total.Steals
	}

	sp = tr.begin("eval.count", root, pass)
	line := countOutcomes(outcomes, isFailed).String()
	tr.end(sp, int64(len(outcomes)))
	tr.end(root, 0)
	out.wall, out.root = time.Since(t0), root

	if line != in.ref.line {
		return out, fmt.Errorf("replay printed %q, reference %q: the replay no longer mirrors hddpred evaluate", line, in.ref.line)
	}
	if sweepPath {
		t1 := time.Now()
		if _, err := sweep.Run(bt, fleet, failHours, sweep.Config{Voters: evalVoters, Workers: 1}); err != nil {
			return out, err
		}
		out.workers1 = time.Since(t1)
	}
	return out, nil
}
