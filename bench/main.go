// Command bench is the repository benchmark. It runs one named workload
// against hddpred (as a child process) or the hddcart library (in
// process), checks every output against an independent reference, and
// prints one JSON result line: with -trace 0 the end-to-end metrics, with
// -trace 1 the per-layer ledger of a separate traced run. See README.md
// for the workloads, the metrics and how to run them; run.sh builds the
// binaries and is the entry point BENCHMARK.json names.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if os.Getenv(refEnv) != "" {
		os.Exit(referenceMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(e *env) error
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []workload{
	{"evaluate-paper", "hddpred evaluate on a gendata-shaped CSV: decode-bound, most rows discarded; the no-change case for scoring work", runEvaluatePaper},
	{"evaluate-fleet", "hddpred evaluate -sweep on a monitoring-shaped CSV: every row scored, so binning and quantize costs show", runEvaluateFleet},
	{"roc-forest", "48-tree forest swept over a fleet already in code space for N=1..17: kernels, tiling and the scheduler dominate", runROCForest},
	{"serve-ingest", "in-process serve.Server fed tick by tick: Monitor.Observe, shard queues and snapshot/restore with no decode", runServeIngest},
	{"serve-http", "hddpred serve over loopback at fixed open-loop rates plus a closed-loop capacity phase: JSONL decode dominates", runServeHTTP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workdir  string
	hddpred  string
	// scale multiplies every workload's fleet size; the self-tests
	// shrink it, runs of the benchmark keep 1.
	scale float64
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rep, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	cfg := config{scale: 1}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long the measured phase runs")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for generated inputs, models and snapshots")
	fs.StringVar(&cfg.hddpred, "hddpred", ".bench_build/hddpred", "hddpred binary the CLI workloads run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := findWorkload(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if !(cfg.seconds > 0) {
		return cfg, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	cfg.traced = *traceFlag == 1
	return cfg, nil
}

// env is the state one workload run fills in.
type env struct {
	cfg    config
	out    io.Writer // human-readable progress lines
	tr     *tracer
	ref    *hostRef
	digest string
	// refTimes are the reference kernels' times (seconds) sampled during
	// the measured phase.
	refTimes []float64

	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
}

// runWorkload runs cfg's workload and assembles its report.
func runWorkload(cfg config, stdout io.Writer) (rep *report, err error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Children get these paths as arguments; absolute paths keep them
	// independent of any working directory.
	for _, p := range []*string{&cfg.workdir, &cfg.hddpred} {
		abs, err := filepath.Abs(*p)
		if err != nil {
			return nil, err
		}
		*p = abs
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	// Files an earlier run left dirty would be written back during setup.
	if err := syncDir(cfg.workdir); err != nil {
		return nil, err
	}
	ref, err := startHostRef()
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, ref.stop()) }()
	e := &env{
		cfg:   cfg,
		out:   stdout,
		tr:    newTracer(cfg.traced),
		ref:   ref,
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
	total0, steal0, err := machineTicks()
	if err != nil {
		return nil, err
	}
	if err := w.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if e.digest == "" {
		return nil, errors.New("workload recorded no input digest")
	}
	total1, steal1, err := machineTicks()
	if err != nil {
		return nil, err
	}
	h := hostRecord(cfg, e.digest, (steal1-steal0)/max(1, total1-total0))
	hostLine, err := json.Marshal(map[string]any{"host": h})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(hostLine))
	if rep, err = e.report(); err != nil {
		return nil, err
	}
	if cfg.traced {
		spans := filepath.Join(cfg.workdir, "spans-"+cfg.workload+".json")
		if err := writeSpans(spans, h, rep.Metrics, e.tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// report builds the result line: every registered metric of the run's
// mode, in registry order.
func (e *env) report() (*report, error) {
	rep := &report{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metricValue{},
	}
	if e.attempted < 1 {
		return nil, errors.New("workload attempted no operations")
	}
	if e.cfg.traced {
		for _, m := range perLayer {
			v := e.layer[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("per-layer metric %s is %v", m.name, v)
			}
			rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
		for name := range e.layer {
			if _, ok := findMetric(perLayer, name); !ok {
				return nil, fmt.Errorf("per-layer metric %q is not registered", name)
			}
		}
		return rep, nil
	}
	for _, m := range endToEnd {
		v, ok := e.e2e[m.name]
		if !ok || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("end-to-end metric %s has no positive finite value (%v)", m.name, v)
		}
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return rep, nil
}

// logf prints one human-readable progress line.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, "%s: "+format+"\n", append([]any{e.cfg.workload}, args...)...)
}

// measuring reports whether the measured phase should run another
// iteration: at least min iterations, then until the run's time is up.
func (e *env) measuring(start time.Time, done, min int) bool {
	return done < min || time.Since(start).Seconds() < e.cfg.seconds
}

// setupRuns is how many times each workload sets up; setup_s is their
// median and every repeat must produce the same input digest.
const setupRuns = 5

// setupRepeated runs setup setupRuns times, records setup_s, checks that
// the inputs are identical each time, and returns the last setup's state.
// Every other state is released with close, on error paths too.
func setupRepeated[T any](e *env, setup func() (T, string, error), close func(T)) (T, error) {
	var last, none T
	var times, refTimes []float64
	for i := 0; i < setupRuns; i++ {
		// Collect the previous set-up's garbage first: the collector's
		// marking would compete with the reference kernels.
		runtime.GC()
		for j := 0; j < 2; j++ {
			r, err := e.ref.time()
			if err != nil {
				if i > 0 {
					close(last)
				}
				return none, err
			}
			refTimes = append(refTimes, r)
		}
		t0 := time.Now()
		st, digest, err := setup()
		if i > 0 {
			close(last)
		}
		if err != nil {
			return none, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 && digest != e.digest {
			close(st)
			return none, fmt.Errorf("setup %d produced input digest %s, setup 1 %s: inputs are not a function of the seed", i+1, digest, e.digest)
		}
		e.digest = digest
		last = st
	}
	e.e2e["setup_s"] = median(times) / slowdown(refTimes)
	e.logf("setup %.3fs (median of %d; host at %.2f× nominal time), inputs sha256 %s",
		median(times), setupRuns, slowdown(refTimes), e.digest)
	return last, nil
}

// sampleRef times the reference kernels once during the measured phase.
// Callers sample only while the system under test is idle, and this
// process's collector must be idle too: its marking would compete with
// the kernels for memory. Where this process is the system under test
// (inProcess), collecting would move work out of the measurement, so the
// sample is skipped while a collection may be running; otherwise the
// process collects first.
func (e *env) sampleRef(inProcess bool) error {
	if !inProcess {
		runtime.GC()
	} else if gcMayRun() {
		return nil
	}
	r, err := e.ref.time()
	if err == nil {
		e.refTimes = append(e.refTimes, r)
	}
	return err
}

// minRefSamples is the fewest reference samples a measured phase reports
// on; reportTimes takes the missing ones after the phase.
const minRefSamples = 5

// reportTimes records the measured phase's end-to-end latency (ms) and
// throughput (per second) at nominal host speed, and the reference
// kernels' time as host.ref_ms.
func (e *env) reportTimes(latencyMs, perSecond float64) error {
	for len(e.refTimes) < minRefSamples {
		if err := e.sampleRef(false); err != nil {
			return err
		}
	}
	f := slowdown(e.refTimes)
	e.e2e["latency_ms_p50"] = latencyMs / f
	e.e2e["throughput_per_s"] = perSecond * f
	e.layer["host.ref_ms"] = median(e.refTimes) * 1000
	e.logf("host at %.2f× nominal time over %d reference samples: latency %.4g ms, throughput %.4g/s at nominal speed",
		f, len(e.refTimes), latencyMs/f, perSecond*f)
	return nil
}

// count adds one check's operations to the run's totals.
func (e *env) count(attempted, failed int64) {
	e.attempted += attempted
	e.failed += failed
}
