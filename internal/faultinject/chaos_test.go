// Chaos suite: drives the full ingest→monitor→detect pipeline through
// every fault injector at increasing severities and asserts the pipeline's
// three robustness invariants (DESIGN.md §10):
//
//  1. no input corruption panics any stage;
//  2. severity 0 is bit-identical to the clean pipeline — the hardening
//     layers are pure pass-throughs on clean telemetry;
//  3. degradation is graceful: detection verdicts drift from the clean
//     baseline by a bounded, severity-monotone amount, and every ingest
//     decision is visible in the accounting counters.
//
// The external test package (faultinject_test) lets the suite import the
// root hddcart API and exercise exactly what library users call.
package faultinject_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hddcart"
	"hddcart/internal/cart"
	"hddcart/internal/detect"
	"hddcart/internal/faultinject"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
	"hddcart/internal/trace"
)

const chaosSeed = 4242

// severities returns the chaos severity ladder; -short (the CI chaos-smoke
// job) keeps the identity and light-corruption points.
func severities(t *testing.T) []float64 {
	if testing.Short() {
		return []float64{0, 0.01}
	}
	return []float64{0, 0.01, 0.1, 0.5}
}

// chaosEnv is the shared fixture: a small deterministic fleet and a tree
// trained on its clean traces.
type chaosEnv struct {
	features smart.FeatureSet
	model    hddcart.Predictor
	serials  []string // deterministic drive order
	traces   map[string][]smart.Record
	failHour map[string]int // -1 for good drives
}

var (
	envOnce sync.Once
	env     *chaosEnv
)

func chaosFixture(t *testing.T) *chaosEnv {
	t.Helper()
	envOnce.Do(func() {
		fleet, err := simulate.New(simulate.Config{Seed: chaosSeed, GoodScale: 0.001, FailedScale: 0.03})
		if err != nil {
			panic(err)
		}
		e := &chaosEnv{
			features: smart.CriticalFeatures(),
			traces:   make(map[string][]smart.Record),
			failHour: make(map[string]int),
		}
		var x [][]float64
		var y []float64
		for _, d := range fleet.Drives() {
			recs := fleet.Trace(d.Index)
			e.serials = append(e.serials, d.Serial)
			e.traces[d.Serial] = recs
			fh := -1
			if d.Failed {
				fh = d.FailHour
			}
			e.failHour[d.Serial] = fh
			s := detect.ExtractSeries(e.features, recs, 0, len(recs))
			for i, vec := range s.X {
				deteriorating := d.Failed && s.Hours[i] >= d.FailHour-d.Window
				switch {
				case deteriorating:
					x = append(x, vec)
					y = append(y, -1)
				case i%24 == 0: // subsample the healthy bulk
					x = append(x, vec)
					y = append(y, 1)
				}
			}
		}
		sort.Strings(e.serials)
		tree, err := cart.TrainClassifier(x, y, nil, cart.Params{MinSplit: 20, MinBucket: 7, CP: 0.001})
		if err != nil {
			panic(err)
		}
		e.model = tree
		env = e
	})
	return env
}

// inject corrupts every drive's trace with one injector at one severity,
// each drive on its own derived seed.
func inject(e *chaosEnv, inj faultinject.Injector, severity float64) map[string][]smart.Record {
	out := make(map[string][]smart.Record, len(e.traces))
	for serial, recs := range e.traces {
		rng := rand.New(rand.NewSource(faultinject.SeedFor(chaosSeed, inj.Name, serial)))
		out[serial] = inj.Apply(rng, recs, severity)
	}
	return out
}

// offlineOutcome is one drive's verdict under both offline detectors.
type offlineOutcome struct {
	votingAlarmed bool
	votingHour    int
	meanAlarmed   bool
	meanHour      int
}

// runOffline runs the hardened offline pipeline — sanitize → extract
// (non-finite vectors dropped) → detect (NaN-excluding voting and
// mean-threshold) — over every drive.
func runOffline(e *chaosEnv, traces map[string][]smart.Record) map[string]offlineOutcome {
	voting := &hddcart.VotingDetector{Model: e.model, Voters: 5}
	mean := &hddcart.MeanThresholdDetector{Model: e.model, Voters: 5, Threshold: -0.2}
	out := make(map[string]offlineOutcome, len(traces))
	for _, serial := range e.serials {
		recs, _ := smart.SanitizeTrace(traces[serial])
		s := detect.ExtractSeries(e.features, recs, 0, len(recs))
		v := detect.Scan(voting, s, e.failHour[serial])
		m := detect.Scan(mean, s, e.failHour[serial])
		out[serial] = offlineOutcome{
			votingAlarmed: v.Alarmed, votingHour: v.AlarmHour,
			meanAlarmed: m.Alarmed, meanHour: m.AlarmHour,
		}
	}
	return out
}

// monitorRun is the online pipeline's observable result: which drives
// warned plus the full ingest accounting.
type monitorRun struct {
	warned map[string]bool
	stats  hddcart.MonitorStats
	fed    int
}

func runMonitor(t *testing.T, e *chaosEnv, traces map[string][]smart.Record) monitorRun {
	t.Helper()
	m, err := hddcart.NewMonitor(hddcart.MonitorConfig{
		Features:        e.features,
		Model:           e.model,
		Voters:          5,
		StaleAfterHours: 72,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := monitorRun{warned: make(map[string]bool)}
	for _, serial := range e.serials {
		for _, rec := range traces[serial] {
			run.fed++
			if _, ok := m.Observe(serial, rec); ok {
				run.warned[serial] = true
			}
		}
	}
	run.stats = m.Stats()
	return run
}

// verdictDisagreement is the fraction of drives whose alarmed-verdict
// differs between two runs.
func verdictDisagreement(base, got map[string]bool, serials []string) float64 {
	diff := 0
	for _, s := range serials {
		if base[s] != got[s] {
			diff++
		}
	}
	return float64(diff) / float64(len(serials))
}

// degradationBound is the allowed verdict-disagreement fraction at a
// severity: small corruption may only move a small slice of the fleet.
func degradationBound(severity float64) float64 {
	return math.Min(1, 6*severity+0.15)
}

func TestChaosOfflineDetection(t *testing.T) {
	e := chaosFixture(t)
	baseline := runOffline(e, e.traces)
	for _, inj := range faultinject.RecordInjectors() {
		inj := inj
		t.Run(inj.Name, func(t *testing.T) {
			prev := -1.0
			for _, sev := range severities(t) {
				got := runOffline(e, inject(e, inj, sev))
				if sev == 0 {
					if !maps2Equal(baseline, got) {
						t.Fatalf("severity 0 not bit-identical to the clean pipeline")
					}
				}
				baseV := make(map[string]bool)
				gotV := make(map[string]bool)
				for s, o := range baseline {
					baseV[s] = o.votingAlarmed
				}
				for s, o := range got {
					gotV[s] = o.votingAlarmed
				}
				d := verdictDisagreement(baseV, gotV, e.serials)
				t.Logf("severity %.2f: voting disagreement %.3f", sev, d)
				if d > degradationBound(sev) {
					t.Errorf("severity %.2f: disagreement %.3f exceeds bound %.3f",
						sev, d, degradationBound(sev))
				}
				if d+0.2 < prev {
					t.Errorf("severity %.2f: disagreement %.3f fell far below the previous severity's %.3f",
						sev, d, prev)
				}
				prev = math.Max(prev, d)
			}
		})
	}
}

func maps2Equal(a, b map[string]offlineOutcome) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			return false
		}
	}
	return true
}

func TestChaosMonitor(t *testing.T) {
	e := chaosFixture(t)
	baseline := runMonitor(t, e, e.traces)
	for _, inj := range faultinject.RecordInjectors() {
		inj := inj
		t.Run(inj.Name, func(t *testing.T) {
			for _, sev := range severities(t) {
				got := runMonitor(t, e, inject(e, inj, sev))
				st := got.stats
				if st.Observed != got.fed {
					t.Fatalf("severity %.2f: Observed %d != fed %d", sev, st.Observed, got.fed)
				}
				accounted := st.Scored + st.DroppedOutOfOrder + st.DroppedDuplicate +
					st.DroppedInvalid + st.DroppedQuarantined
				if accounted > st.Observed {
					t.Fatalf("severity %.2f: accounting %d exceeds Observed %d (%+v)",
						sev, accounted, st.Observed, st)
				}
				if sev == 0 {
					if !mapsBoolEqual(baseline.warned, got.warned) || baseline.stats != got.stats {
						t.Fatalf("severity 0 not bit-identical: stats %+v vs %+v", baseline.stats, got.stats)
					}
					continue
				}
				d := verdictDisagreement(baseline.warned, got.warned, e.serials)
				t.Logf("severity %.2f: warned disagreement %.3f, stats %+v", sev, d, st)
				if d > degradationBound(sev) {
					t.Errorf("severity %.2f: disagreement %.3f exceeds bound %.3f",
						sev, d, degradationBound(sev))
				}
				// The degradation policy must actually be exercising its
				// counters: heavy corruption cannot be invisible.
				if sev >= 0.1 {
					dropsOrRepairs := st.DroppedOutOfOrder + st.DroppedDuplicate +
						st.DroppedInvalid + st.DroppedQuarantined + st.Repaired + st.StaleResets
					if inj.Name != "drop-samples" && dropsOrRepairs == 0 {
						t.Errorf("severity %.2f: %s left no trace in the degradation counters", sev, inj.Name)
					}
				}
			}
		})
	}
}

func mapsBoolEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestChaosConflictingSerials(t *testing.T) {
	e := chaosFixture(t)
	var drives []trace.DriveTrace
	for _, serial := range e.serials {
		drives = append(drives, trace.DriveTrace{
			Meta:    trace.DriveMeta{Serial: serial, Failed: e.failHour[serial] >= 0, FailHour: e.failHour[serial]},
			Records: e.traces[serial],
		})
	}
	feed := func(ds []trace.DriveTrace) monitorRun {
		traces := make(map[string][]smart.Record)
		for _, d := range ds {
			traces[d.Meta.Serial] = append(traces[d.Meta.Serial], d.Records...)
		}
		merged := &chaosEnv{
			features: e.features, model: e.model,
			traces: traces, failHour: e.failHour,
		}
		for s := range traces {
			merged.serials = append(merged.serials, s)
		}
		sort.Strings(merged.serials)
		return runMonitor(t, merged, traces)
	}
	baseline := feed(drives)
	for _, sev := range severities(t) {
		rng := rand.New(rand.NewSource(faultinject.SeedFor(chaosSeed, "conflict-serials")))
		got := feed(faultinject.ConflictSerials(rng, drives, sev))
		if sev == 0 {
			if !mapsBoolEqual(baseline.warned, got.warned) || baseline.stats != got.stats {
				t.Fatalf("severity 0 not bit-identical")
			}
			continue
		}
		st := got.stats
		if st.Observed != got.fed {
			t.Fatalf("severity %.2f: Observed %d != fed %d", sev, st.Observed, got.fed)
		}
		t.Logf("severity %.2f: stats %+v", sev, st)
		if sev >= 0.1 && st.DroppedOutOfOrder+st.DroppedDuplicate == 0 {
			t.Errorf("severity %.2f: conflicting serials produced no collision drops", sev)
		}
	}
}

// renderBackblaze serializes traces as a daily Backblaze drive-stats CSV.
func renderBackblaze(e *chaosEnv) string {
	var b strings.Builder
	b.WriteString("date,serial_number,model,failure")
	for _, a := range smart.Catalogue {
		fmt.Fprintf(&b, ",smart_%d_normalized,smart_%d_raw", int(a.ID), int(a.ID))
	}
	b.WriteByte('\n')
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, serial := range e.serials {
		recs := e.traces[serial]
		fh := e.failHour[serial]
		lastDaily := -1
		for i := range recs {
			if recs[i].Hour%24 == 0 {
				lastDaily = i
			}
		}
		for i := range recs {
			rec := &recs[i]
			if rec.Hour%24 != 0 {
				continue
			}
			failure := "0"
			if fh >= 0 && i == lastDaily {
				failure = "1"
			}
			date := epoch.AddDate(0, 0, rec.Hour/24).Format("2006-01-02")
			fmt.Fprintf(&b, "%s,%s,F,%s", date, serial, failure)
			for j := 0; j < smart.NumAttrs; j++ {
				fmt.Fprintf(&b, ",%g,%g", rec.Normalized[j], rec.Raw[j])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestChaosBackblazeIngest(t *testing.T) {
	e := chaosFixture(t)
	doc := renderBackblaze(e)
	parse := func(d string) ([]trace.DriveTrace, trace.ParseStats) {
		drives, stats, err := trace.ReadBackblazeStats(strings.NewReader(d))
		if err != nil {
			t.Fatalf("ingest failed outright: %v", err)
		}
		return drives, stats
	}
	baseDrives, baseStats := parse(doc)
	if len(baseDrives) != len(e.serials) {
		t.Fatalf("clean parse found %d drives, want %d", len(baseDrives), len(e.serials))
	}
	if baseStats.Dropped != 0 || baseStats.Repaired != 0 {
		t.Fatalf("clean parse reported corruption: %+v", baseStats)
	}
	for _, sev := range severities(t) {
		rng := rand.New(rand.NewSource(faultinject.SeedFor(chaosSeed, "truncate-csv")))
		mangled := faultinject.TruncateCSVRows(rng, doc, sev)
		if sev == 0 && mangled != doc {
			t.Fatal("severity 0 changed the CSV")
		}
		drives, stats := parse(mangled)
		if sev == 0 && (len(drives) != len(baseDrives) || stats.String() != baseStats.String()) {
			t.Fatalf("severity 0 parse differs from clean parse")
		}
		t.Logf("severity %.2f: %d drives, %s", sev, len(drives), stats.String())
		if len(drives) < len(baseDrives)/2 {
			t.Errorf("severity %.2f: ingest lost most of the fleet (%d of %d drives)",
				sev, len(drives), len(baseDrives))
		}
		// Whatever survived ingest must be clean: chronological hours,
		// in-domain values, serials intact.
		for _, dt := range drives {
			if dt.Meta.Serial == "" {
				t.Fatal("accepted a drive without a serial")
			}
			for i := range dt.Records {
				if i > 0 && dt.Records[i].Hour <= dt.Records[i-1].Hour {
					t.Fatalf("severity %.2f: drive %s hours not chronological", sev, dt.Meta.Serial)
				}
				if n := dt.Records[i].CorruptValues(); n != 0 {
					t.Fatalf("severity %.2f: drive %s carries %d corrupt values", sev, dt.Meta.Serial, n)
				}
			}
		}
	}
}
