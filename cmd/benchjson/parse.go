package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"hddcart/internal/cpu"
)

// Report is the JSON document benchjson emits.
type Report struct {
	// Context echoes the `go test` environment lines (goos, goarch, pkg,
	// cpu) when present in the input, and records under "gomaxprocs" the
	// GOMAXPROCS the benchmarks ran at (comma-separated when benchmarks
	// of one input ran at different values). With any benchmark line it
	// also records the host benchjson runs on — the one the piped
	// benchmarks ran on: "nproc" (runtime.NumCPU) and "kernel", the
	// partition-kernel tier a build from this source dispatches to
	// (cpu.Active: "avx2" or "scalar").
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks holds one entry per distinct benchmark name, in input
	// order of first appearance.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark aggregates every run of one benchmark name.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix or the
	// trailing -GOMAXPROCS suffix (e.g. "PredictCompiledTree/pointer");
	// the report context records the GOMAXPROCS.
	Name string `json:"name"`
	// Runs is how many result lines were folded into this entry.
	Runs int `json:"runs"`
	// Iterations is the median b.N across runs.
	Iterations int64 `json:"iterations"`
	// Metrics maps each reported unit (ns/op, ns/sample, B/op, allocs/op,
	// Msamples/s, ...) to its median value across runs.
	Metrics map[string]float64 `json:"metrics"`
}

// Parse reads `go test -bench` output and aggregates the result lines.
// Unrecognized lines (PASS, ok, test logs) are ignored. Runs of one
// benchmark at different GOMAXPROCS (`-cpu 1,2`) are an error: their
// median would describe neither.
func Parse(r io.Reader) (*Report, error) {
	report := &Report{}
	index := map[string]int{}          // name → position in report.Benchmarks
	samples := map[string]*benchRuns{} // name → accumulated runs
	procs := map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if name, ok := strings.CutPrefix(line, "Benchmark"); ok && name != "" {
			runs, err := parseBenchLine(name)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if _, seen := index[runs.name]; !seen {
				index[runs.name] = len(report.Benchmarks)
				report.Benchmarks = append(report.Benchmarks, Benchmark{Name: runs.name})
				samples[runs.name] = &benchRuns{procs: runs.procs, metrics: map[string][]float64{}}
			}
			acc := samples[runs.name]
			if acc.procs != runs.procs {
				return nil, fmt.Errorf("line %d: benchmark %s ran at GOMAXPROCS %d and %d; give one -cpu value per report",
					lineNo, runs.name, acc.procs, runs.procs)
			}
			procs[runs.procs] = true
			acc.iterations = append(acc.iterations, runs.iterations)
			for unit, v := range runs.metrics {
				acc.metrics[unit] = append(acc.metrics[unit], v)
			}
			continue
		}
		// Context lines look like "goos: linux" / "cpu: ...".
		if k, v, ok := strings.Cut(line, ": "); ok && !strings.ContainsAny(k, " \t") {
			switch k {
			case "goos", "goarch", "pkg", "cpu":
				if report.Context == nil {
					report.Context = map[string]string{}
				}
				report.Context[k] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(procs) > 0 {
		if report.Context == nil {
			report.Context = map[string]string{}
		}
		report.Context["gomaxprocs"] = joinProcs(procs)
		report.Context["nproc"] = strconv.Itoa(runtime.NumCPU())
		report.Context["kernel"] = cpu.Active().String()
	}
	for i := range report.Benchmarks {
		acc := samples[report.Benchmarks[i].Name]
		report.Benchmarks[i].Runs = len(acc.iterations)
		report.Benchmarks[i].Iterations = int64(median(toFloats(acc.iterations)))
		report.Benchmarks[i].Metrics = map[string]float64{}
		for unit, vs := range acc.metrics {
			report.Benchmarks[i].Metrics[unit] = median(vs)
		}
	}
	return report, nil
}

// joinProcs renders a set of GOMAXPROCS values in increasing order.
func joinProcs(procs map[int]bool) string {
	vs := make([]int, 0, len(procs))
	for p := range procs {
		vs = append(vs, p)
	}
	sort.Ints(vs)
	parts := make([]string, len(vs))
	for i, p := range vs {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

// benchRuns accumulates the repeated runs of one benchmark.
type benchRuns struct {
	procs      int
	iterations []int64
	metrics    map[string][]float64
}

// oneRun is a single parsed benchmark result line.
type oneRun struct {
	name       string
	procs      int // GOMAXPROCS: the name's -N suffix, 1 without one
	iterations int64
	metrics    map[string]float64
}

// parseBenchLine parses one result line (with the "Benchmark" prefix
// already stripped): `Name[-P]   N   value unit   value unit ...`.
func parseBenchLine(line string) (*oneRun, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return nil, fmt.Errorf("malformed benchmark line %q", "Benchmark"+line)
	}
	name, procs := fields[0], 1
	// Strip the -GOMAXPROCS suffix go test appends when procs > 1.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad iteration count %q: %w", fields[1], err)
	}
	if iters <= 0 {
		// A zero or negative b.N never comes out of a healthy `go test`
		// run (-count=0 produces no lines at all); folding it into the
		// medians would silently skew them.
		return nil, fmt.Errorf("non-positive iteration count %d", iters)
	}
	run := &oneRun{name: name, procs: procs, iterations: iters, metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metric value %q: %w", fields[i], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// ParseFloat accepts "NaN" and "Inf", but a non-finite metric
			// would poison the medians and make the JSON encoder fail far
			// from the offending line.
			return nil, fmt.Errorf("non-finite metric value %q %s", fields[i], fields[i+1])
		}
		run.metrics[fields[i+1]] = v
	}
	return run, nil
}

// median returns the middle value (mean of the middle two for even
// counts); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// toFloats widens int64 samples for the shared median helper.
func toFloats(vs []int64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}
