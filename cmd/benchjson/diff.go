package main

import (
	"fmt"
	"io"
	"sort"
)

// Regression is one benchmark whose fresh ns/op exceeds the committed
// baseline by more than the tolerance.
type Regression struct {
	// Name is the benchmark name shared by both reports.
	Name string
	// Baseline and Fresh are the median ns/op of each report.
	Baseline, Fresh float64
	// Ratio is Fresh/Baseline (> 1+tolerance, or it wouldn't be here).
	Ratio float64
}

// Diff compares a fresh report against a committed baseline and returns
// the ns/op regressions beyond tolerance (0.10 = fail when a benchmark
// got more than 10% slower), sorted worst first. Benchmarks present in
// only one report are skipped: CI runs bench subsets, and a brand-new
// benchmark has nothing to regress against. Improvements never fail the
// diff — the gate exists to stop slowdowns, not to force baseline churn.
func Diff(baseline, fresh *Report, tolerance float64) []Regression {
	base := map[string]float64{}
	for _, b := range baseline.Benchmarks {
		if ns, ok := b.Metrics["ns/op"]; ok && ns > 0 {
			base[b.Name] = ns
		}
	}
	var regs []Regression
	for _, b := range fresh.Benchmarks {
		ns, ok := b.Metrics["ns/op"]
		if !ok || ns <= 0 {
			continue
		}
		ref, ok := base[b.Name]
		if !ok {
			continue
		}
		if ratio := ns / ref; ratio > 1+tolerance {
			regs = append(regs, Regression{Name: b.Name, Baseline: ref, Fresh: ns, Ratio: ratio})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Ratio != regs[j].Ratio {
			return regs[i].Ratio > regs[j].Ratio
		}
		return regs[i].Name < regs[j].Name
	})
	return regs
}

// writeDiff renders the comparison outcome for humans (the CI log).
func writeDiff(w io.Writer, fresh *Report, regs []Regression, compared int, tolerance float64) {
	if len(regs) == 0 {
		fmt.Fprintf(w, "benchjson: %d benchmarks within %.0f%% of baseline\n", compared, tolerance*100)
		return
	}
	fmt.Fprintf(w, "benchjson: %d of %d benchmarks regressed beyond %.0f%%:\n",
		len(regs), compared, tolerance*100)
	for _, r := range regs {
		fmt.Fprintf(w, "  %-60s %12.0f ns/op -> %12.0f ns/op (%.2fx)\n",
			r.Name, r.Baseline, r.Fresh, r.Ratio)
	}
}

// comparedCount reports how many fresh benchmarks had a baseline ns/op to
// compare against (the denominator writeDiff shows).
func comparedCount(baseline, fresh *Report) int {
	base := map[string]bool{}
	for _, b := range baseline.Benchmarks {
		if ns, ok := b.Metrics["ns/op"]; ok && ns > 0 {
			base[b.Name] = true
		}
	}
	n := 0
	for _, b := range fresh.Benchmarks {
		if ns, ok := b.Metrics["ns/op"]; ok && ns > 0 && base[b.Name] {
			n++
		}
	}
	return n
}

// writeMissingNote names every baseline benchmark the fresh run lacks.
// Those are not gated, so a deleted or renamed benchmark would otherwise
// leave the gate without a word; the gate itself is unchanged.
func writeMissingNote(w io.Writer, baseline, fresh *Report) {
	ran := map[string]bool{}
	for _, b := range fresh.Benchmarks {
		ran[b.Name] = true
	}
	var missing []string
	for _, b := range baseline.Benchmarks {
		if !ran[b.Name] {
			missing = append(missing, b.Name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	fmt.Fprintf(w, "benchjson: note: %d baseline benchmarks absent from this run, not gated:\n", len(missing))
	for _, name := range missing {
		fmt.Fprintf(w, "  %s\n", name)
	}
}

// writeProcsNote tells the reader when the two reports ran at different
// GOMAXPROCS: the gate still applies, but a parallel benchmark's ns/op
// moves with the proc count, so a regression or a win may be the host's.
func writeProcsNote(w io.Writer, baseline, fresh *Report) {
	base, now := baseline.Context["gomaxprocs"], fresh.Context["gomaxprocs"]
	if base == now {
		return
	}
	if base == "" {
		base = "unrecorded"
	}
	if now == "" {
		now = "unrecorded"
	}
	fmt.Fprintf(w, "benchjson: note: baseline GOMAXPROCS %s, this run %s; ns/op compared anyway\n", base, now)
}
