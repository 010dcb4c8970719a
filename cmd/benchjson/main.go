// Command benchjson converts `go test -bench` text output into a stable
// JSON report, so performance numbers (ns/op, ns/sample, allocs/op,
// fleet-scan Msamples/s) can be committed and diffed across changes.
// Repeated runs of the same benchmark (-count > 1) are collapsed to their
// per-metric medians, which resists the odd noisy run.
//
// With -baseline it instead gates against a committed report: the fresh
// run's ns/op medians are compared to the baseline's and the process
// exits non-zero when any shared benchmark regressed beyond -tolerance
// (default 0.10 = 10%). Benchmarks without a baseline entry are skipped,
// so CI may run any subset; baseline benchmarks the run lacks are named
// in a note, so a deleted or renamed one does not leave the gate
// silently. Each report records the GOMAXPROCS its
// benchmarks ran at; when the baseline's differs, the diff says so and
// gates anyway. An input that runs one benchmark at several GOMAXPROCS
// (`-cpu 1,2`) is rejected.
//
// Usage:
//
//	go test -bench 'Predict|FleetScan' -count 3 . | benchjson -o BENCH_inference.json
//	go test -bench 'Train' -benchtime 1x . | benchjson -baseline BENCH_training.json -tolerance 2.5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	in := flag.String("i", "", "benchmark output to read (default stdin)")
	out := flag.String("o", "", "JSON file to write (default stdout)")
	baseline := flag.String("baseline", "", "committed BENCH_*.json to diff against; exit non-zero on ns/op regressions beyond -tolerance")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional ns/op slowdown vs -baseline (0.10 = 10%)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	report, err := Parse(r)
	if err != nil {
		fatal(err)
	}
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}
	if *baseline != "" {
		if *tolerance < 0 {
			fatal(fmt.Errorf("negative -tolerance %v", *tolerance))
		}
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			fatal(fmt.Errorf("parse baseline %s: %w", *baseline, err))
		}
		regs := Diff(&base, report, *tolerance)
		writeProcsNote(os.Stdout, &base, report)
		writeMissingNote(os.Stdout, &base, report)
		writeDiff(os.Stdout, report, regs, comparedCount(&base, report), *tolerance)
		if len(regs) > 0 {
			os.Exit(1)
		}
		if *out == "" {
			return
		}
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
