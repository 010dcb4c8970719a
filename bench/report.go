package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"hddcart/internal/cpu"
)

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, m := range defs {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// endToEnd are the metrics every untraced run prints, for every workload.
// Each workload gives them its own operation (see README.md): a CLI pass,
// a sweep pass, a tick's alarm latency, an HTTP batch.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"ledger.coverage", "ratio"},
	{"ledger.overhead", "ratio"},
	{"host.ref_ms", "ms"},
	{"bench.samples", "count"},
	{"cmd.unaccounted_s", "s"},
	{"cmd.model_load_s", "s"},
	{"cmd.ready_s", "s"},
	{"cmd.parent_rss_mb", "MB"},
	{"trace.decode_s", "s"},
	{"trace.rows", "count"},
	{"trace.mb_per_s", "MB/s"},
	{"trace.rows_used_share", "ratio"},
	{"detect.extract_s", "s"},
	{"detect.samples", "count"},
	{"detect.scanbatch_s", "s"},
	{"dataset.binmatrix_s", "s"},
	{"sweep.prepare_s", "s"},
	{"sweep.prepare_binned_s", "s"},
	{"sweep.run_s", "s"},
	{"sweep.run_workers1_s", "s"},
	{"sweep.steals", "count"},
	{"cart.train_s", "s"},
	{"cart.compile_s", "s"},
	{"eval.count_s", "s"},
	{"eval.quant_mismatch", "count"},
	{"monitor.observe_ns", "ns"},
	{"monitor.scored_share", "ratio"},
	{"monitor.heap_mb", "MB"},
	{"serve.ingest_ns", "ns"},
	{"serve.reject_retries_per_record", "ratio"},
	{"serve.queue_depth_max", "count"},
	{"serve.drain_ms", "ms"},
	{"serve.warnings_ms", "ms"},
	{"serve.alarm_ms_p90", "ms"},
	{"serve.snapshot_s", "s"},
	{"serve.snapshot_mb", "MB"},
	{"serve.restore_s", "s"},
	{"serve.handler_ns", "ns"},
	{"serve.decode_ns", "ns"},
	{"serve.scrape_ms_p50", "ms"},
	{"serve.refused", "count"},
	{"http.transport_ms", "ms"},
	{"http.batch_ms_p50.r" + rungName(rungA), "ms"},
	{"http.batch_ms_p99.r" + rungName(rungA), "ms"},
	{"http.batch_ms_p50.r" + rungName(rungB), "ms"},
	{"http.batch_ms_p99.r" + rungName(rungB), "ms"},
	{"http.batch_ms_p99.r" + rungName(rungC), "ms"},
	{"http.max_ok_rate", "1/s"},
	{"http.capacity_per_s", "1/s"},
	{"gen.late_ms_p50.r" + rungName(rungA), "ms"},
	{"gen.late_ms_p99.r" + rungName(rungA), "ms"},
	{"gen.late_ms_p99.r" + rungName(rungB), "ms"},
	{"gen.late_ms_p99.r" + rungName(rungC), "ms"},
	{"gen.sent_rate.r" + rungName(rungC), "1/s"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: exactly these four keys.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host records where and on what a run measured.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Digest     string `json:"inputs_sha256"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run: a run with more than a few
	// percent measured a host that was taking its CPUs away.
	StealShare float64 `json:"steal_share"`
}

func hostRecord(cfg config, digest string, stealShare float64) host {
	return host{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Digest:     digest,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     cpu.Active().String(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		StealShare: stealShare,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeSpans writes a traced run's host record, per-layer metrics and raw
// spans as one JSON document.
func writeSpans(path string, h host, metrics map[string]metricValue, tr *tracer) error {
	doc := struct {
		Host    host                   `json:"host"`
		Metrics map[string]metricValue `json:"metrics"`
		Spans   []span                 `json:"spans"`
	}{h, metrics, tr.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
