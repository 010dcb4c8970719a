package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hddcart"
	"hddcart/internal/cart"
	"hddcart/internal/serve"
	"hddcart/internal/smart"
)

// Serve workload sizes at scale 1. Each drive streams serveRows distinct
// simulated records, played forth and back (see stream.at), so a run can
// last any number of hourly ticks without a jump in any attribute.
const (
	serveRows        = 16
	ingestDrives     = 10000
	serveVoters      = 11
	serveSampleEvery = 16
	// metricsEvery is how often (in ticks) serve-ingest scrapes Metrics,
	// refEvery how often it times the reference kernels.
	metricsEvery, refEvery = 10, 25
)

// at returns the stream's record for tick t: hour t, values following a
// triangle wave over the stream's records.
func (s *stream) at(t int) smart.Record {
	r := s.recs[triIndex(t, len(s.recs))]
	r.Hour = t
	return r
}

// monitorConfig is the monitor every serve shard and every reference
// runs: the real CT, the 13 critical features, 11 voters.
func monitorConfig(tree *cart.Tree) hddcart.MonitorConfig {
	return hddcart.MonitorConfig{Features: smart.CriticalFeatures(), Model: tree, Voters: serveVoters}
}

// serveInputs is a serve workload's fleet and model.
type serveInputs struct {
	streams []stream
	tree    *cart.Tree
	model   []byte // the tree's hddpred model file
	trainS  float64
}

// setupServeInputs windows a fleet and trains the CT.
func setupServeInputs(e *env, drives int) (*serveInputs, string, error) {
	streams, err := windowFleet(e.cfg.seed, drives, serveRows, 0)
	if err != nil {
		return nil, "", err
	}
	ds, err := trainingSet(e)
	if err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	tree, err := trainCT(ds)
	if err != nil {
		return nil, "", err
	}
	in := &serveInputs{streams: streams, tree: tree, trainS: time.Since(t0).Seconds()}
	in.model, err = json.Marshal(modelFile{Type: "ct", Tree: tree})
	if err != nil {
		return nil, "", err
	}
	return in, digestOf(streamsDigest(streams), in.model), nil
}

// referenceWarnings feeds a plain Monitor the streams of drives
// 0, every, 2·every, … for ticks [0, ticks(i)) and returns their warnings
// and the time spent in Observe.
func referenceWarnings(in *serveInputs, every int, ticks func(i int) int) ([]hddcart.MonitorWarning, int64, time.Duration, error) {
	mon, err := hddcart.NewMonitor(monitorConfig(in.tree))
	if err != nil {
		return nil, 0, 0, err
	}
	var ws []hddcart.MonitorWarning
	var calls int64
	var busy time.Duration
	for i := 0; i < len(in.streams); i += every {
		s := &in.streams[i]
		n := ticks(i)
		t0 := time.Now()
		for t := 0; t < n; t++ {
			if w, ok := mon.Observe(s.serial, s.at(t)); ok {
				ws = append(ws, w)
			}
		}
		busy += time.Since(t0)
		calls += int64(n)
	}
	serve.SortWarnings(ws)
	return ws, calls, busy, nil
}

// warningKey identifies a warning bit for bit.
type warningKey struct {
	serial string
	hour   int
	health uint64
}

// warningMismatches counts the warnings of got (restricted to serials
// keep accepts) and want that the other lacks, as multisets.
func warningMismatches(got, want []hddcart.MonitorWarning, keep func(serial string) bool) int64 {
	counts := map[warningKey]int{}
	for _, w := range want {
		counts[warningKey{w.Serial, w.Hour, math.Float64bits(w.Health)}]++
	}
	for _, w := range got {
		if keep(w.Serial) {
			counts[warningKey{w.Serial, w.Hour, math.Float64bits(w.Health)}]--
		}
	}
	var diff int64
	for _, c := range counts {
		diff += int64(max(c, -c))
	}
	return diff
}

// ingestState is serve-ingest's set-up state: the fleet plus a started
// server.
type ingestState struct {
	*serveInputs
	cfg serve.Config
	srv *serve.Server
}

func setupServeIngest(e *env) (*ingestState, string, error) {
	in, digest, err := setupServeInputs(e, e.scaled(ingestDrives))
	if err != nil {
		return nil, "", err
	}
	mcfg := monitorConfig(in.tree)
	st := &ingestState{serveInputs: in, cfg: serve.Config{
		NewMonitor:   func() (*hddcart.Monitor, error) { return hddcart.NewMonitor(mcfg) },
		SnapshotPath: filepath.Join(e.cfg.workdir, "serve-ingest.snap"),
	}}
	// A snapshot left by an earlier run would be restored into the new
	// server; every run starts cold.
	if err := os.Remove(st.cfg.SnapshotPath); err != nil && !os.IsNotExist(err) {
		return nil, "", err
	}
	st.srv, err = serve.New(st.cfg)
	if err != nil {
		return nil, "", err
	}
	return st, digest, nil
}

func runServeIngest(e *env) error {
	st, err := setupRepeated(e, func() (*ingestState, string, error) { return setupServeIngest(e) },
		func(st *ingestState) { _ = st.srv.Close() })
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = st.srv.Close()
		}
	}()
	if err := settle(e.cfg.workdir); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc

	srv, streams := st.srv, st.streams
	n := len(streams)
	var alarm, drain, warn, coverage, tracedTicks, plainTicks []float64
	var ingestBusy time.Duration
	var busy float64 // seconds over all ticks
	var retries int64
	queueMax := 0
	var warnings []hddcart.MonitorWarning
	ticks := 0
	start := time.Now()
	for ; e.measuring(start, ticks, 2*serveVoters); ticks++ {
		t := ticks
		e.tr.on = e.cfg.traced && t%2 == 0
		t0 := time.Now()
		root := e.tr.begin("serve.tick", -1, t)
		sp := e.tr.begin("serve.ingest", root, t)
		for i := range streams {
			if t%metricsEvery == 0 && i == n/2 {
				// Mid-tick, while the shards still have a backlog.
				msp := e.tr.begin("serve.metrics", sp, t)
				queueMax = max(queueMax, srv.Metrics().Totals.QueueDepth)
				e.tr.end(msp, 1)
			}
			rec := streams[i].at(t)
			for srv.Ingest(streams[i].serial, rec) == serve.Rejected {
				retries++
				runtime.Gosched() // backpressure: let the shards catch up
			}
		}
		e.tr.end(sp, int64(n))
		t1 := time.Now()
		sp = e.tr.begin("serve.drain", root, t)
		srv.Drain()
		e.tr.end(sp, 0)
		t2 := time.Now()
		sp = e.tr.begin("serve.warnings", root, t)
		ws := srv.Warnings()
		e.tr.end(sp, int64(len(ws)))
		t3 := time.Now()
		e.tr.end(root, int64(n))
		warnings = append(warnings, ws...)
		ingestBusy += t1.Sub(t0)
		alarm = append(alarm, ms64(t3.Sub(t1)))
		drain = append(drain, ms64(t2.Sub(t1)))
		warn = append(warn, ms64(t3.Sub(t2)))
		busy += t3.Sub(t0).Seconds()
		if e.tr.on {
			l := e.tr.ledger(root)
			coverage = append(coverage, l.staged().Seconds()/l.root.Seconds())
			tracedTicks = append(tracedTicks, t3.Sub(t0).Seconds())
		} else {
			plainTicks = append(plainTicks, t3.Sub(t0).Seconds())
		}
		if t%refEvery == 0 {
			// Between ticks the shards are drained and idle.
			if err := e.sampleRef(true); err != nil {
				return err
			}
		}
	}
	e.tr.on = false
	rss, err := procStatusMB("self", "VmHWM")
	if err != nil {
		return err
	}
	records := int64(n) * int64(ticks)

	// Every record was retried until accepted: none may be lost, and the
	// shard counters must balance against what the producer sent.
	m := srv.Metrics()
	tot := m.Totals
	failed := abs64(records-tot.Accepted) + abs64(tot.Accepted-int64(tot.Monitor.Observed)) +
		abs64(tot.Rejected-retries) + tot.Shed + tot.Pending
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := (float64(ms.HeapAlloc) - float64(heapBefore)) / (1 << 20)

	t0 := time.Now()
	closed = true
	if err := srv.Close(); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	snapS := time.Since(t0).Seconds()
	fi, err := os.Stat(st.cfg.SnapshotPath)
	if err != nil {
		return err
	}
	t0 = time.Now()
	restored, err := serve.New(st.cfg)
	if err != nil {
		return err
	}
	restoreS := time.Since(t0).Seconds()
	rm := restored.Metrics()
	if err := restored.Close(); err != nil {
		return err
	}
	if !rm.SnapshotRestored {
		failed += int64(tot.Monitor.Observed)
	} else {
		failed += abs64(int64(rm.Totals.Monitor.Observed) - int64(tot.Monitor.Observed))
	}

	ref, calls, observeBusy, err := referenceWarnings(st.serveInputs, serveSampleEvery, func(int) int { return ticks })
	if err != nil {
		return err
	}
	sampled := map[string]bool{}
	for i := 0; i < n; i += serveSampleEvery {
		sampled[streams[i].serial] = true
	}
	failed += warningMismatches(warnings, ref, func(s string) bool { return sampled[s] })
	e.count(records, failed)

	if err := e.reportTimes(median(alarm), float64(records)/busy); err != nil {
		return err
	}
	e.e2e["max_rss_mb"] = rss
	e.logf("%d ticks × %d drives: %.0f records/s, alarm %.3f ms p50 / %.3f ms p90 (%d ticks), %d warnings, snapshot %.2f MB",
		ticks, n, float64(records)/busy, median(alarm), quantile(alarm, 0.9), len(alarm), len(warnings), float64(fi.Size())/(1<<20))
	if !e.cfg.traced {
		return nil
	}
	e.layer["bench.samples"] = float64(ticks)
	e.layer["ledger.coverage"] = median(coverage)
	e.layer["ledger.overhead"] = median(tracedTicks)/median(plainTicks) - 1
	e.layer["cart.train_s"] = st.trainS
	e.layer["monitor.observe_ns"] = float64(observeBusy.Nanoseconds()) / float64(calls)
	e.layer["monitor.scored_share"] = float64(tot.Monitor.Scored) / float64(tot.Monitor.Observed)
	e.layer["monitor.heap_mb"] = heapMB
	e.layer["serve.ingest_ns"] = float64(ingestBusy.Nanoseconds()) / float64(records)
	e.layer["serve.reject_retries_per_record"] = float64(retries) / float64(records)
	e.layer["serve.queue_depth_max"] = float64(queueMax)
	e.layer["serve.drain_ms"] = median(drain)
	e.layer["serve.warnings_ms"] = median(warn)
	e.layer["serve.alarm_ms_p90"] = quantile(alarm, 0.9)
	e.layer["serve.snapshot_s"] = snapS
	e.layer["serve.snapshot_mb"] = float64(fi.Size()) / (1 << 20)
	e.layer["serve.restore_s"] = restoreS
	return nil
}

func ms64(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func abs64(x int64) int64 { return max(x, -x) }
