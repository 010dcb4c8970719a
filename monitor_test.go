package hddcart

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/smart"
)

// monitorScoreOffset shifts test scores into the valid normalized SMART
// domain [0,255]: recAt stores score+offset and firstFeatureModel subtracts
// it again, so tests can speak in health degrees (±1) without the records
// being rejected as out-of-domain by the degradation policy.
const monitorScoreOffset = 100

// firstFeatureModel maps the first feature back to the test's score scale.
type firstFeatureModel struct{}

func (firstFeatureModel) Predict(x []float64) float64 { return x[0] - monitorScoreOffset }

// monitorFeatures is a single-attribute feature set.
var monitorFeatures = FeatureSet{{Attr: smart.RawReadErrorRate, Kind: smart.Normalized}}

func recAt(hour int, v float64) Record {
	var r Record
	r.Hour = hour
	i, _ := smart.Index(smart.RawReadErrorRate)
	r.Normalized[i] = v + monitorScoreOffset
	return r
}

func newTestMonitor(t testing.TB, voters int, useMean bool) *Monitor {
	t.Helper()
	m, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures,
		Model:    firstFeatureModel{},
		Voters:   voters,
		UseMean:  useMean,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(MonitorConfig{Model: firstFeatureModel{}}); err == nil {
		t.Error("missing features accepted")
	}
	if _, err := NewMonitor(MonitorConfig{Features: monitorFeatures}); err == nil {
		t.Error("missing model accepted")
	}
	// Degenerate windows, thresholds and timeouts are construction-time
	// errors, not silently clamped defaults.
	if _, err := NewMonitor(MonitorConfig{Features: monitorFeatures, Model: firstFeatureModel{}}); err == nil {
		t.Error("zero voting window accepted")
	}
	if _, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures, Model: firstFeatureModel{}, Voters: -3,
	}); err == nil {
		t.Error("negative voting window accepted")
	}
	if _, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures, Model: firstFeatureModel{}, Voters: 1, Threshold: -2,
	}); err == nil {
		t.Error("threshold outside [-1,1] accepted")
	}
	if _, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures, Model: firstFeatureModel{}, Voters: 1, StaleAfterHours: -1,
	}); err == nil {
		t.Error("negative stale timeout accepted")
	}
}

func TestMonitorVotingWarns(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	// Healthy, then persistent degradation: warn once 2 of last 3 are
	// negative.
	// The window at the trip holds (1, -1, -1): health is its mean.
	inputs := []float64{1, 1, 1, -1, -1, -1}
	var ws []MonitorWarning
	for h, v := range inputs {
		if w, ok := m.Observe("d1", recAt(h, v)); ok {
			ws = append(ws, w)
		}
	}
	want := MonitorWarning{Serial: "d1", Health: -1.0 / 3, Hour: 4}
	if len(ws) != 1 || ws[0] != want {
		t.Errorf("warnings = %+v, want [%+v]", ws, want)
	}
	// No duplicate warning for the same drive.
	if _, ok := m.Observe("d1", recAt(10, -1)); ok {
		t.Error("duplicate warning raised")
	}
}

func TestMonitorSuppressesBlips(t *testing.T) {
	m := newTestMonitor(t, 5, false)
	inputs := []float64{1, 1, -1, 1, 1, 1, 1, 1}
	for h, v := range inputs {
		if _, ok := m.Observe("d1", recAt(h, v)); ok {
			t.Fatalf("warned on a transient blip at hour %d", h)
		}
	}
}

func TestMonitorMeanMode(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures, Model: firstFeatureModel{},
		Voters: 2, Threshold: -0.25, UseMean: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Means over windows of 2: (0.9,-0.2)/2=0.35, (-0.2,-0.4)/2=-0.3 < -0.25.
	if _, ok := m.Observe("d", recAt(0, 0.9)); ok {
		t.Error("warned too early")
	}
	if _, ok := m.Observe("d", recAt(1, -0.2)); ok {
		t.Error("warned above threshold")
	}
	w, ok := m.Observe("d", recAt(2, -0.4))
	if !ok || w.Hour != 2 {
		t.Errorf("mean-mode warning = %+v, %v", w, ok)
	}
}

// TestMonitorQueueOrderAndSerials checks that each warning Observe
// returns carries its own drive's serial and health, and that a
// WarningQueue fed those warnings hands the operator the worst drive
// first (paper §III-B).
func TestMonitorQueueOrderAndSerials(t *testing.T) {
	m := newTestMonitor(t, 1, false)
	var q WarningQueue
	want := []MonitorWarning{{Serial: "mild", Health: -0.25}, {Serial: "bad", Health: -0.75}}
	for i, w := range want {
		got, ok := m.Observe(w.Serial, recAt(0, w.Health))
		if !ok || got != w {
			t.Fatalf("Observe(%s) = %+v, %v; want %+v", w.Serial, got, ok, w)
		}
		q.Push(Warning{Drive: i, Health: got.Health, Hour: got.Hour})
	}
	for _, i := range []int{1, 0} {
		if got, ok := q.Pop(); !ok || got.Drive != i {
			t.Fatalf("queue popped %+v, %v; want drive %q", got, ok, want[i].Serial)
		}
	}
}

func TestMonitorDropsOutOfOrderRecords(t *testing.T) {
	m := newTestMonitor(t, 1, false)
	m.Observe("d", recAt(5, 1))
	if _, ok := m.Observe("d", recAt(4, -1)); ok {
		t.Error("out-of-order record triggered a warning")
	}
	if st := m.Stats(); st.Scored != 1 || st.DroppedOutOfOrder != 1 {
		t.Errorf("scored/out-of-order = %d/%d, want 1/1", st.Scored, st.DroppedOutOfOrder)
	}
}

func TestMonitorResolve(t *testing.T) {
	m := newTestMonitor(t, 1, false)
	if _, ok := m.Observe("d", recAt(0, -1)); !ok {
		t.Fatal("no warning raised")
	}
	if _, ok := m.Observe("d", recAt(1, -1)); ok {
		t.Fatal("warned drive warned again before Resolve")
	}
	m.Resolve("d")
	// After replacement the (new) drive can warn again.
	if _, ok := m.Observe("d", recAt(100, -1)); !ok {
		t.Error("resolved drive cannot warn again")
	}
}

// rateModel scores the first feature as-is (change rates carry no offset:
// the recAt shift cancels in the difference).
type rateModel struct{}

func (rateModel) Predict(x []float64) float64 { return x[0] }

func TestMonitorChangeRateLookback(t *testing.T) {
	// With a change-rate feature the monitor needs history before it can
	// score at all.
	features := FeatureSet{{Attr: smart.RawReadErrorRate, Kind: smart.ChangeRate, IntervalHours: 6}}
	newMonitor := func() *Monitor {
		m, err := NewMonitor(MonitorConfig{
			Features: features, Model: rateModel{}, Voters: 1, Threshold: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := newMonitor()
	// Declining value: rate −1/h → Δ6h = −6 < −1 once lookback exists.
	warned := false
	for h := 0; h < 10; h++ {
		if _, ok := m.Observe("d", recAt(h, float64(100-h))); ok {
			if h < 6 {
				t.Errorf("warned at hour %d before lookback possible", h)
			}
			warned = true
		}
	}
	if !warned {
		t.Error("never warned despite steady decline")
	}

	// Across a telemetry gap the change rate looks back to the newest
	// record at or before hour−6, which can be older than the retained
	// horizon: flat at hours 0–10, a drop after the gap, so the first
	// post-gap sample (hour 20, looking back to hour 10) must warn, as
	// ExtractSeries over the whole trace scores it.
	m = newMonitor()
	var got []int
	for h := 0; h <= 30; h++ {
		if h > 10 && h < 20 {
			continue
		}
		v := 100.0
		if h >= 20 {
			v = 90
		}
		if _, ok := m.Observe("d", recAt(h, v)); ok {
			got = append(got, h)
		}
	}
	if len(got) != 1 || got[0] != 20 {
		t.Errorf("gap trace warned at hours %v, want [20]", got)
	}
	if s := m.Stats(); s.Scored != 16 {
		t.Errorf("gap trace scored %d samples, want 16 (hours 6–10 and 20–30)", s.Scored)
	}
}

// corruptAt builds a record whose first attribute is NaN (invalid domain).
func corruptAt(hour int) Record {
	var r Record
	r.Hour = hour
	i, _ := smart.Index(smart.RawReadErrorRate)
	r.Normalized[i] = math.NaN()
	return r
}

func TestMonitorDegradationCounters(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	m.Observe("d", recAt(0, 1))
	m.Observe("d", recAt(0, 1))  // duplicate hour
	m.Observe("d", recAt(-1, 1)) // negative hour after history → out of order
	m.Observe("d", recAt(3, 1))
	m.Observe("d", recAt(2, 1)) // out of order
	st := m.Stats()
	if st.Observed != 5 || st.Scored != 2 {
		t.Errorf("observed/scored = %d/%d, want 5/2", st.Observed, st.Scored)
	}
	if st.DroppedDuplicate != 1 || st.DroppedOutOfOrder != 2 {
		t.Errorf("dup/ooo = %d/%d, want 1/2", st.DroppedDuplicate, st.DroppedOutOfOrder)
	}
}

func TestMonitorRepairsCorruptByCarryForward(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	// Corrupt with no history: dropped outright.
	if _, ok := m.Observe("d", corruptAt(0)); ok {
		t.Error("corrupt first sample warned")
	}
	if st := m.Stats(); st.DroppedInvalid != 1 {
		t.Errorf("DroppedInvalid = %d, want 1", st.DroppedInvalid)
	}
	// Healthy history, then corrupt samples: repaired by carrying the last
	// good (healthy) value forward, so no warning can fire.
	m.Observe("d", recAt(1, 1))
	for h := 2; h < 6; h++ {
		if _, ok := m.Observe("d", corruptAt(h)); ok {
			t.Fatalf("repaired sample warned at hour %d", h)
		}
	}
	if st := m.Stats(); st.Repaired != 4 {
		t.Errorf("Repaired = %d, want 4", st.Repaired)
	}
}

func TestMonitorQuarantineAfterBudget(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures, Model: firstFeatureModel{},
		Voters: 1, BadSampleBudget: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe("d", recAt(0, 1))
	for h := 1; h <= 3; h++ {
		m.Observe("d", corruptAt(h))
	}
	if !m.Quarantined("d") {
		t.Fatal("drive not quarantined after exhausting its error budget")
	}
	// Further observations — even clean, failing ones — are rejected.
	if _, ok := m.Observe("d", recAt(10, -1)); ok {
		t.Error("quarantined drive warned")
	}
	st := m.Stats()
	if st.QuarantineEvents != 1 || st.Quarantined != 1 || st.DroppedQuarantined != 1 {
		t.Errorf("quarantine stats = %+v", st)
	}
	// A clean run below the budget resets it: no quarantine.
	m.Observe("e", recAt(0, 1))
	m.Observe("e", corruptAt(1))
	m.Observe("e", corruptAt(2))
	m.Observe("e", recAt(3, 1)) // resets badRun
	m.Observe("e", corruptAt(4))
	m.Observe("e", corruptAt(5))
	if m.Quarantined("e") {
		t.Error("interrupted bad run quarantined the drive")
	}
	// Resolve lifts the quarantine; the (repaired/replaced) drive warns again.
	m.Resolve("d")
	if m.Quarantined("d") {
		t.Error("Resolve did not lift quarantine")
	}
	if m.Stats().Quarantined != 0 {
		t.Errorf("Quarantined gauge = %d after Resolve, want 0", m.Stats().Quarantined)
	}
	if _, ok := m.Observe("d", recAt(20, -1)); !ok {
		t.Error("resolved drive cannot warn")
	}
}

func TestMonitorStaleWindowReset(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures, Model: firstFeatureModel{},
		Voters: 3, StaleAfterHours: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two failed votes, then a telemetry blackout longer than 24 h: the old
	// votes must not combine with one fresh failed vote into an alarm.
	m.Observe("d", recAt(0, -1))
	m.Observe("d", recAt(1, -1))
	if _, ok := m.Observe("d", recAt(100, -1)); ok {
		t.Error("stale votes survived the blackout and alarmed")
	}
	if st := m.Stats(); st.StaleResets != 1 {
		t.Errorf("StaleResets = %d, want 1", st.StaleResets)
	}
	// After the reset a full fresh window still alarms.
	warned := false
	for h := 101; h < 104; h++ {
		if _, ok := m.Observe("d", recAt(h, -1)); ok {
			warned = true
		}
	}
	if !warned {
		t.Error("drive never re-alarmed on fresh post-blackout evidence")
	}
}

// nanModel poisons the score for a marker value and is healthy otherwise.
type nanModel struct{}

func (nanModel) Predict(x []float64) float64 {
	if x[0] == 0 { // marker: recAt(h, -monitorScoreOffset)
		return math.NaN()
	}
	return x[0] - monitorScoreOffset
}

func TestMonitorExcludesInvalidPredictions(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures, Model: nanModel{}, Voters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// NaN scores must be excluded from the window — not counted as healthy
	// votes — so two failed votes plus a NaN is not yet a full window.
	m.Observe("d", recAt(0, -1))
	m.Observe("d", recAt(1, -monitorScoreOffset)) // scores NaN
	if _, ok := m.Observe("d", recAt(2, -1)); ok {
		t.Error("alarmed on a window padded with an invalid prediction")
	}
	if st := m.Stats(); st.DroppedInvalid != 1 || st.Scored != 2 {
		t.Errorf("stats = %+v, want DroppedInvalid=1 Scored=2", st)
	}
	if _, ok := m.Observe("d", recAt(3, -1)); !ok {
		t.Error("third valid failed vote did not alarm")
	}
}

// TestMonitorSerialCollision checks that every drive keeps its own
// warned state. B0081191 and B0655080 collided under the 31-bit serial
// hash that once keyed the warning queue: one drive's warnings and
// Resolve landed on the other's entry.
func TestMonitorSerialCollision(t *testing.T) {
	const a, b = "B0081191", "B0655080"

	for _, resolved := range []string{a, b} {
		kept := a
		if resolved == a {
			kept = b
		}
		m := newTestMonitor(t, 1, false)
		want := []MonitorWarning{{Serial: a, Health: -0.5, Hour: 0}, {Serial: b, Health: -0.25, Hour: 0}}
		for _, w := range want {
			if got, ok := m.Observe(w.Serial, recAt(w.Hour, w.Health)); !ok || got != w {
				t.Fatalf("Observe(%s) = %+v, %v; want %+v", w.Serial, got, ok, w)
			}
		}
		m.Resolve(resolved)
		// Only the resolved drive warns again; the other stays warned.
		if got, ok := m.Observe(kept, recAt(1, -0.75)); ok {
			t.Fatalf("after Resolve(%s): %s warned again: %+v", resolved, kept, got)
		}
		w := MonitorWarning{Serial: resolved, Health: -0.75, Hour: 1}
		if got, ok := m.Observe(resolved, recAt(1, -0.75)); !ok || got != w {
			t.Fatalf("after Resolve(%s): Observe = %+v, %v; want %+v", resolved, got, ok, w)
		}
	}
}

// TestMonitorCompiledModelEquivalence feeds identical interleaved streams
// to a monitor scoring through the compiled tree and one scoring through
// the pointer tree, and requires identical warning streams — the
// end-to-end form of the compiled layout's bit-identical guarantee.
func TestMonitorCompiledModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		v := rng.Float64()*2 - 1
		// Train in the same offset domain recAt feeds the monitor.
		x = append(x, []float64{v + monitorScoreOffset})
		if v < -0.2 {
			y = append(y, -1)
		} else {
			y = append(y, 1)
		}
	}
	tree, err := cart.TrainClassifier(x, y, nil, cart.Params{MinSplit: 4, MinBucket: 2, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(model Predictor) *Monitor {
		m, err := NewMonitor(MonitorConfig{
			Features: monitorFeatures, Model: model, Voters: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	compiled := mk(tree.Compile())
	pointer := mk(tree)

	serials := []string{"a", "b", "c"}
	warnings := 0
	for h := 0; h < 200; h++ {
		for _, serial := range serials {
			v := rng.Float64()*2 - 1
			w1, ok1 := compiled.Observe(serial, recAt(h, v))
			w2, ok2 := pointer.Observe(serial, recAt(h, v))
			if ok1 != ok2 || w1 != w2 {
				t.Fatalf("hour %d drive %s: compiled warning (%+v,%v) vs pointer (%+v,%v)",
					h, serial, w1, ok1, w2, ok2)
			}
			if ok1 {
				warnings++
			}
		}
		if h%50 == 49 {
			// Resolve so drives can warn again and the streams hold more
			// than one warning per drive.
			for _, serial := range serials {
				compiled.Resolve(serial)
				pointer.Resolve(serial)
			}
		}
	}
	if warnings <= len(serials) {
		t.Fatalf("streams held %d warnings, want more than one per drive", warnings)
	}
}
