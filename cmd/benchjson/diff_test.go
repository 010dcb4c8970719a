package main

import (
	"sort"
	"strings"
	"testing"
)

func report(entries map[string]float64) *Report {
	r := &Report{}
	// Insertion order doesn't matter for Diff; build deterministically
	// anyway so test failures print stably.
	for _, name := range sortedKeys(entries) {
		r.Benchmarks = append(r.Benchmarks, Benchmark{
			Name: name, Runs: 1, Iterations: 1,
			Metrics: map[string]float64{"ns/op": entries[name]},
		})
	}
	return r
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestDiffFlagsRegressions(t *testing.T) {
	base := report(map[string]float64{
		"Train/exact":  1000,
		"Train/binned": 100,
		"Predict":      50,
	})
	fresh := report(map[string]float64{
		"Train/exact":  1050, // +5%: within tolerance
		"Train/binned": 140,  // +40%: regression
		"Predict":      40,   // improvement: never flagged
	})
	regs := Diff(base, fresh, 0.10)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	r := regs[0]
	if r.Name != "Train/binned" || r.Baseline != 100 || r.Fresh != 140 {
		t.Errorf("regression = %+v", r)
	}
	if r.Ratio < 1.39 || r.Ratio > 1.41 {
		t.Errorf("ratio = %v, want 1.4", r.Ratio)
	}
}

func TestDiffSkipsUnsharedBenchmarks(t *testing.T) {
	base := report(map[string]float64{"Old": 100, "Shared": 100})
	fresh := report(map[string]float64{"New": 1e9, "Shared": 105})
	if regs := Diff(base, fresh, 0.10); len(regs) != 0 {
		t.Errorf("unshared benchmarks produced regressions: %+v", regs)
	}
	if n := comparedCount(base, fresh); n != 1 {
		t.Errorf("comparedCount = %d, want 1", n)
	}
}

func TestDiffSortsWorstFirst(t *testing.T) {
	base := report(map[string]float64{"A": 100, "B": 100, "C": 100})
	fresh := report(map[string]float64{"A": 150, "B": 300, "C": 200})
	regs := Diff(base, fresh, 0.10)
	if len(regs) != 3 {
		t.Fatalf("got %d regressions, want 3", len(regs))
	}
	if regs[0].Name != "B" || regs[1].Name != "C" || regs[2].Name != "A" {
		t.Errorf("order = %s,%s,%s; want B,C,A", regs[0].Name, regs[1].Name, regs[2].Name)
	}
}

func TestDiffZeroToleranceFlagsAnySlowdown(t *testing.T) {
	base := report(map[string]float64{"A": 100})
	fresh := report(map[string]float64{"A": 101})
	if regs := Diff(base, fresh, 0); len(regs) != 1 {
		t.Errorf("1%% slowdown at zero tolerance not flagged: %+v", regs)
	}
}

func TestWriteDiffRendersBothOutcomes(t *testing.T) {
	base := report(map[string]float64{"A": 100})
	fresh := report(map[string]float64{"A": 500})
	var clean strings.Builder
	writeDiff(&clean, fresh, nil, 1, 0.10)
	if !strings.Contains(clean.String(), "within 10% of baseline") {
		t.Errorf("clean output = %q", clean.String())
	}
	var bad strings.Builder
	writeDiff(&bad, fresh, Diff(base, fresh, 0.10), 1, 0.10)
	out := bad.String()
	if !strings.Contains(out, "regressed beyond 10%") || !strings.Contains(out, "5.00x") {
		t.Errorf("regression output = %q", out)
	}
}

// TestDiffAcrossGOMAXPROCS: reports from different proc counts are still
// gated, and the diff says the counts differ.
func TestDiffAcrossGOMAXPROCS(t *testing.T) {
	base := report(map[string]float64{"A": 100})
	base.Context = map[string]string{"gomaxprocs": "2"}
	fresh := report(map[string]float64{"A": 500})
	fresh.Context = map[string]string{"gomaxprocs": "4"}
	if regs := Diff(base, fresh, 0.10); len(regs) != 1 {
		t.Errorf("regression across GOMAXPROCS not flagged: %+v", regs)
	}
	var note strings.Builder
	writeProcsNote(&note, base, fresh)
	if !strings.Contains(note.String(), "baseline GOMAXPROCS 2, this run 4") {
		t.Errorf("note = %q", note.String())
	}

	note.Reset()
	writeProcsNote(&note, fresh, fresh)
	if note.Len() != 0 {
		t.Errorf("note for equal GOMAXPROCS: %q", note.String())
	}
	writeProcsNote(&note, report(map[string]float64{"A": 100}), fresh)
	if !strings.Contains(note.String(), "baseline GOMAXPROCS unrecorded, this run 4") {
		t.Errorf("note for a baseline without GOMAXPROCS = %q", note.String())
	}
}

// TestWriteMissingNote: every baseline benchmark absent from the fresh
// run is named, sorted; a run covering the baseline prints nothing.
func TestWriteMissingNote(t *testing.T) {
	base := report(map[string]float64{"Gone/b": 100, "Shared": 100, "Gone/a": 100})
	fresh := report(map[string]float64{"Shared": 100, "New": 100})
	var note strings.Builder
	writeMissingNote(&note, base, fresh)
	want := "benchjson: note: 2 baseline benchmarks absent from this run, not gated:\n  Gone/a\n  Gone/b\n"
	if note.String() != want {
		t.Errorf("note = %q, want %q", note.String(), want)
	}
	if regs := Diff(base, fresh, 0.10); len(regs) != 0 {
		t.Errorf("absent benchmarks changed the gate: %+v", regs)
	}
	note.Reset()
	writeMissingNote(&note, base, base)
	if note.Len() != 0 {
		t.Errorf("note for a complete run: %q", note.String())
	}
}
