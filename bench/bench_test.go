package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hddcart"
	"hddcart/internal/detect"
	"hddcart/internal/eval"
)

// TestMain lets the test binary serve as the reference process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) != "" {
		os.Exit(referenceMain())
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests check.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryMatchesBenchmarkJSON pins the metric and workload
// registries to BENCHMARK.json, name for name and unit for unit.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(names), len(defs))
		}
		for i, name := range names {
			m, ok := findMetric(defs, name)
			if !ok {
				t.Errorf("%s: BENCHMARK.json metric %s is not printed by the benchmark", kind, name)
			} else if m.unit != units[i] {
				t.Errorf("%s: %s unit %q in BENCHMARK.json, %q printed", kind, name, units[i], m.unit)
			}
		}
	}
	var names, units []string
	for _, m := range b.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range b.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
}

// buildHddpred builds the hddpred binary the CLI workloads drive.
func buildHddpred(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hddpred")
	out, err := exec.Command("go", "build", "-o", bin, "hddcart/cmd/hddpred").CombinedOutput()
	if err != nil {
		t.Fatalf("build hddpred: %v\n%s", err, out)
	}
	return bin
}

// runTiny runs one workload at a tenth of its size for a moment.
func runTiny(t *testing.T, hddpred, name string, seed int64, traced bool) (*report, host) {
	t.Helper()
	dir := t.TempDir()
	cfg := config{
		workload: name, seed: seed, seconds: 0.5, traced: traced, scale: 0.1,
		workdir: dir, hddpred: hddpred,
	}
	var out bytes.Buffer
	rep, err := runWorkload(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	var h struct{ Host host }
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &h); err != nil {
		t.Fatalf("%s: host line: %v", name, err)
	}
	return rep, h.Host
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny sizes:
// every check passes, every printed metric is registered with its
// BENCHMARK.json unit, and a traced run computes its ledger coverage.
func TestWorkloadsTiny(t *testing.T) {
	b := loadBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	hddpred := buildHddpred(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			rep, h := runTiny(t, hddpred, w.name, 1, traced)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(rep.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(rep.Metrics), want)
			}
			for name, v := range rep.Metrics {
				if u, ok := units[name]; !ok || u != v.Unit {
					t.Errorf("%s: printed %s [%s], BENCHMARK.json has [%s] (listed: %v)", w.name, name, v.Unit, u, ok)
				}
			}
			if traced && !(rep.Metrics["ledger.coverage"].Value > 0) {
				t.Errorf("%s: traced run computed no ledger coverage", w.name)
			}
			if h.Kernel == "" || h.NProc < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.Seed != 1 || len(h.Digest) != 64 ||
				h.StealShare < 0 || h.StealShare > 1 {
				t.Errorf("%s: incomplete host record %+v", w.name, h)
			}
			t.Logf("%s traced=%v: %d attempted in %v", w.name, traced, rep.Attempted, time.Since(start).Round(time.Millisecond))
		}
	}
}

// TestInputDigest checks that inputs are a function of the seed: the same
// seed gives the same digest, another seed another.
func TestInputDigest(t *testing.T) {
	_, a := runTiny(t, "", "serve-ingest", 7, false)
	_, b := runTiny(t, "", "serve-ingest", 7, false)
	_, c := runTiny(t, "", "serve-ingest", 8, false)
	if a.Digest != b.Digest {
		t.Errorf("seed 7 gave digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 7 and 8 gave the same digest %s", a.Digest)
	}
}

// TestWrongOutcomesCounted injects a wrong outcome into each workload's
// check and expects it counted as a failure.
func TestWrongOutcomesCounted(t *testing.T) {
	ref := evalRef{res: eval.Result{GoodTotal: 10, GoodAlarmed: 1, FailedTotal: 4, FailedDetected: 3, TIAs: []int{5, 6, 7}}}
	ref.line = ref.res.String()
	if got := ref.check([]byte(ref.line + "\n")); got != 0 {
		t.Errorf("evaluate: the reference line itself counted %d failures", got)
	}
	wrong := ref.res
	wrong.GoodAlarmed = 2
	if got := ref.check([]byte(wrong.String())); got != 1 {
		t.Errorf("evaluate: one extra false alarm counted %d failures, want 1", got)
	}
	wrong = ref.res
	wrong.TIAs = []int{5, 6, 8}
	if got := ref.check([]byte(wrong.String())); got != 1 {
		t.Errorf("evaluate: a wrong lead time counted %d failures, want 1", got)
	}
	if got := ref.check([]byte("hddpred: boom")); got != 14 {
		t.Errorf("evaluate: unreadable output counted %d failures, want every drive (14)", got)
	}

	in := &rocInputs{ref: make([][]detect.Outcome, len(rocVoters))}
	outs := make([][]detect.Outcome, len(rocVoters))
	for k := range rocVoters {
		in.ref[k] = []detect.Outcome{{LeadHours: -1}, {Alarmed: true, AlarmHour: 9, LeadHours: 3}}
		outs[k] = make([]detect.Outcome, 2*rocSampleEvery)
		outs[k][0] = in.ref[k][0]
		outs[k][rocSampleEvery] = in.ref[k][1]
	}
	if got := checkROC(in, outs, nil, nil); got != 0 {
		t.Errorf("roc-forest: matching outcomes counted %d failures", got)
	}
	outs[3][rocSampleEvery].AlarmHour = 10
	if got := checkROC(in, outs, nil, nil); got != 1 {
		t.Errorf("roc-forest: one moved alarm counted %d failures, want 1", got)
	}

	want := []hddcart.MonitorWarning{{Serial: "a", Health: -0.5, Hour: 20}, {Serial: "b", Health: -0.75, Hour: 21}}
	got := []hddcart.MonitorWarning{want[0], {Serial: "b", Health: -0.7500000000000001, Hour: 21}, {Serial: "z", Hour: 1}}
	all := func(s string) bool { return s != "z" }
	if n := warningMismatches(want, want, all); n != 0 {
		t.Errorf("serve: identical feeds counted %d mismatches", n)
	}
	if n := warningMismatches(got, want, all); n != 2 {
		t.Errorf("serve: a one-ulp health difference counted %d mismatches, want 2 (one missing, one extra)", n)
	}
}

// TestLedger checks self times and coverage on a hand-built trace.
func TestLedger(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 0, End: 60, Parent: 0},
		{Name: "b", Start: 10, End: 30, Parent: 1},
		{Name: "b", Start: 70, End: 90, Parent: 0},
		{Name: "pass", Start: 100, End: 200, Parent: -1, Pass: 1},
	}
	l := tr.ledger(0)
	if l.self["a"] != 40 || l.self["b"] != 40 || l.staged() != 80 || l.root != 100 {
		t.Errorf("ledger = %+v, want a 40, b 40, staged 80 of 100", l)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}
