package main

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hddcart/internal/cpu"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: hddcart
cpu: AMD EPYC 7B13
BenchmarkPredictCompiledTree/pointer         	   18258	    130729 ns/op	         7.535 ns/sample
BenchmarkPredictCompiledTree/pointer         	   20084	    122395 ns/op	         7.055 ns/sample
BenchmarkPredictCompiledTree/pointer         	   19150	    123434 ns/op	         7.115 ns/sample
BenchmarkPredictCompiledTree/compiledBatch-8 	   16047	    166104 ns/op	         9.574 ns/sample	       0 B/op	       0 allocs/op
BenchmarkFleetScan/compiled/workers=4        	    5025	    483888 ns/op	        67.96 Msamples/s
PASS
ok  	hddcart	37.958s
`

func TestParseAggregatesRuns(t *testing.T) {
	report, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Context["goos"]; got != "linux" {
		t.Errorf("context goos = %q, want linux", got)
	}
	if got := report.Context["cpu"]; got != "AMD EPYC 7B13" {
		t.Errorf("context cpu = %q", got)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(report.Benchmarks), report.Benchmarks)
	}

	ptr := report.Benchmarks[0]
	if ptr.Name != "PredictCompiledTree/pointer" {
		t.Errorf("name = %q", ptr.Name)
	}
	if ptr.Runs != 3 {
		t.Errorf("runs = %d, want 3", ptr.Runs)
	}
	// Median of three runs, not mean: 123434 ns/op and 7.115 ns/sample.
	if got := ptr.Metrics["ns/op"]; got != 123434 {
		t.Errorf("ns/op median = %v, want 123434", got)
	}
	if got := ptr.Metrics["ns/sample"]; got != 7.115 {
		t.Errorf("ns/sample median = %v, want 7.115", got)
	}
	if ptr.Iterations != 19150 {
		t.Errorf("iterations median = %d, want 19150", ptr.Iterations)
	}

	// The -8 GOMAXPROCS suffix is stripped; alloc metrics survive.
	batch := report.Benchmarks[1]
	if batch.Name != "PredictCompiledTree/compiledBatch" {
		t.Errorf("name = %q", batch.Name)
	}
	if got, ok := batch.Metrics["allocs/op"]; !ok || got != 0 {
		t.Errorf("allocs/op = %v (present=%v), want 0", got, ok)
	}

	fleet := report.Benchmarks[2]
	if fleet.Name != "FleetScan/compiled/workers=4" {
		t.Errorf("name = %q", fleet.Name)
	}
	if got := fleet.Metrics["Msamples/s"]; got != 67.96 {
		t.Errorf("Msamples/s = %v, want 67.96", got)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX 12 34",            // odd trailing fields
		"BenchmarkX notanint 1 ns/op", // bad iteration count
		"BenchmarkX 12 nan? ns/op no", // bad metric value arity
		// Truncated result lines, as left by a killed `go test` or a cut
		// pipe: name only, name+count only, and a dangling metric value.
		"BenchmarkX",
		"BenchmarkX 12",
		"BenchmarkX 12 34.5",
		// Non-finite metric values: ParseFloat accepts these spellings,
		// but they must not reach the medians or the JSON encoder.
		"BenchmarkX 12 NaN ns/op",
		"BenchmarkX 12 Inf ns/op",
		"BenchmarkX 12 -Inf ns/op",
		"BenchmarkX 12 34 ns/op\nBenchmarkX 15 nan ns/op",
		// Zero or negative b.N (never produced by a healthy run).
		"BenchmarkX 0 34 ns/op",
		"BenchmarkX -3 34 ns/op",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

// TestParseErrorsCarryLineNumbers pins the error form: a malformed line
// deep in a file must be reported by its line number, not by a panic or
// a downstream JSON failure.
func TestParseErrorsCarryLineNumbers(t *testing.T) {
	in := "goos: linux\nBenchmarkOK 10 5.0 ns/op\nBenchmarkBad 10 NaN ns/op\n"
	_, err := Parse(strings.NewReader(in))
	if err == nil {
		t.Fatal("expected error for NaN metric")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
	if !strings.Contains(err.Error(), "NaN") {
		t.Errorf("error %q does not name the offending value", err)
	}
}

func TestParseEmptyInput(t *testing.T) {
	report, err := Parse(strings.NewReader("PASS\nok x 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 0 {
		t.Fatalf("got %d benchmarks, want 0", len(report.Benchmarks))
	}
}

func TestParseRecordsGOMAXPROCS(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"BenchmarkX-2 10 5 ns/op\nBenchmarkY-2 10 5 ns/op\n", "2"},
		{"BenchmarkX 10 5 ns/op\n", "1"},
		{sampleOutput, "1,8"},
	} {
		report, err := Parse(strings.NewReader(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if got := report.Context["gomaxprocs"]; got != c.want {
			t.Errorf("Parse(%q): gomaxprocs %q, want %q", c.in, got, c.want)
		}
	}
	report, err := Parse(strings.NewReader("PASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := report.Context["gomaxprocs"]; ok {
		t.Error("gomaxprocs recorded for an input without benchmarks")
	}
}

// TestParseRecordsHost: a report names the host it was measured on —
// CPU count and partition-kernel tier — so numbers from different
// machines or tiers are not compared unawares.
func TestParseRecordsHost(t *testing.T) {
	report, err := Parse(strings.NewReader("BenchmarkX-2 10 50 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := report.Context["nproc"], strconv.Itoa(runtime.NumCPU()); got != want {
		t.Errorf("nproc %q, want %q", got, want)
	}
	if got, want := report.Context["kernel"], cpu.Active().String(); got != want {
		t.Errorf("kernel %q, want %q", got, want)
	}
	report, err = Parse(strings.NewReader("PASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"nproc", "kernel"} {
		if _, ok := report.Context[k]; ok {
			t.Errorf("%s recorded for an input without benchmarks", k)
		}
	}
}

// TestParseRejectsMixedGOMAXPROCS: `-cpu 1,2` prints one benchmark at two
// proc counts; folding both into one median would describe neither.
func TestParseRejectsMixedGOMAXPROCS(t *testing.T) {
	in := "BenchmarkX 10 50 ns/op\nBenchmarkY-2 10 5 ns/op\nBenchmarkX-2 10 30 ns/op\n"
	_, err := Parse(strings.NewReader(in))
	if err == nil {
		t.Fatal("mixed GOMAXPROCS accepted")
	}
	for _, want := range []string{"line 3", "X", "GOMAXPROCS 1 and 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
