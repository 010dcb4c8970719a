package hddcart

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// feedRamp drives a monitor with serial's deteriorating stream over
// [0, hours): healthy (+0.8) until failFrom, then failing (−0.8).
func feedRamp(m *Monitor, serial string, hours, failFrom int) []MonitorWarning {
	var ws []MonitorWarning
	for h := 0; h < hours; h++ {
		v := 0.8
		if h >= failFrom {
			v = -0.8
		}
		if w, ok := m.Observe(serial, recAt(h, v)); ok {
			ws = append(ws, w)
		}
	}
	return ws
}

func encodeString(t *testing.T, m *Monitor) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMonitorSnapshotRoundTrip checks that restore is lossless: a
// restored monitor re-encodes to byte-identical JSON, proving every
// piece of mutable state (histories, windows, warned set, queue, stats)
// survived the round trip.
func TestMonitorSnapshotRoundTrip(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	feedRamp(m, "drive-a", 12, 6)
	feedRamp(m, "drive-b", 12, 100) // stays healthy
	feedRamp(m, "drive-c", 12, 2)
	first := encodeString(t, m)

	m2 := newTestMonitor(t, 3, false)
	if err := m2.RestoreSnapshot(strings.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	second := encodeString(t, m2)
	if first != second {
		t.Errorf("snapshot not byte-identical after round trip:\n%s\nvs\n%s", first, second)
	}
	if m2.Stats() != m.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", m2.Stats(), m.Stats())
	}
	if m2.Outstanding() != m.Outstanding() {
		t.Errorf("outstanding %d, want %d", m2.Outstanding(), m.Outstanding())
	}
}

// TestMonitorSnapshotResume checks the service contract: killing a
// monitor mid-window, restoring, and replaying the remainder of the
// stream produces exactly the warnings the uninterrupted monitor
// produces — vote windows resume where they left off, not from cold.
func TestMonitorSnapshotResume(t *testing.T) {
	const hours, failFrom, cut = 16, 7, 9 // cut lands mid-deterioration-window
	cont := newTestMonitor(t, 3, false)
	contWarnings := feedRamp(cont, "drive-a", hours, failFrom)

	half := newTestMonitor(t, 3, false)
	var got []MonitorWarning
	for h := 0; h < cut; h++ {
		v := 0.8
		if h >= failFrom {
			v = -0.8
		}
		if w, ok := half.Observe("drive-a", recAt(h, v)); ok {
			got = append(got, w)
		}
	}
	snap := encodeString(t, half)
	resumed := newTestMonitor(t, 3, false)
	if err := resumed.RestoreSnapshot(strings.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	for h := cut; h < hours; h++ {
		if w, ok := resumed.Observe("drive-a", recAt(h, -0.8)); ok {
			got = append(got, w)
		}
	}
	if len(got) != len(contWarnings) {
		t.Fatalf("resumed run raised %d warnings, uninterrupted %d", len(got), len(contWarnings))
	}
	for i := range got {
		if got[i] != contWarnings[i] {
			t.Errorf("warning %d: resumed %+v, uninterrupted %+v", i, got[i], contWarnings[i])
		}
	}
	if encodeString(t, resumed) != encodeString(t, cont) {
		t.Error("final states diverged between resumed and uninterrupted monitors")
	}
}

// TestMonitorSnapshotDigest pins a fleet-sized run to fixed digests: 300
// drives over 60 hours with pops and resolves along the way, then a
// snapshot, a restore and a full drain. The snapshot bytes and the pop
// order must not move when the monitor's internals change.
func TestMonitorSnapshotDigest(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	rng := rand.New(rand.NewSource(3))
	var pops []MonitorWarning
	for h := 0; h < 60; h++ {
		for d := 0; d < 300; d++ {
			m.Observe(fmt.Sprintf("S%04d", d), recAt(h, rng.Float64()*2-1-float64(d%7)*0.05))
		}
		if h%7 == 0 {
			if w, ok := m.NextWarning(); ok {
				pops = append(pops, w)
			}
		}
		if h%11 == 0 {
			m.Resolve(fmt.Sprintf("S%04d", h))
		}
	}
	snap := encodeString(t, m)
	if got, want := fmt.Sprintf("%d %x", len(snap), sha256.Sum256([]byte(snap))),
		"181745 ead50a44ad36727d8875f717608e132204526f7bffb7db97ae82154ef048f1bb"; got != want {
		t.Errorf("snapshot length and sha256 = %s, want %s", got, want)
	}
	restored := newTestMonitor(t, 3, false)
	if err := restored.RestoreSnapshot(strings.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	for {
		w, ok := restored.NextWarning()
		if !ok {
			break
		}
		pops = append(pops, w)
	}
	if got, want := fmt.Sprintf("%d %x", len(pops), sha256.Sum256([]byte(fmt.Sprint(pops)))),
		"301 fca070f67c0ab06af056e7cb094c123040ece349fbe803ba6639b14a29057244"; got != want {
		t.Errorf("pop count and sha256 = %s, want %s", got, want)
	}
}

// TestMonitorSnapshotFingerprint checks that a snapshot only restores
// under the configuration that produced it.
func TestMonitorSnapshotFingerprint(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	feedRamp(m, "drive-a", 8, 2)
	snap := encodeString(t, m)

	cases := []struct {
		name   string
		target *Monitor
	}{
		{"different voters", newTestMonitor(t, 5, false)},
		{"different rule", newTestMonitor(t, 3, true)},
	}
	for _, tc := range cases {
		if err := tc.target.RestoreSnapshot(strings.NewReader(snap)); err == nil {
			t.Errorf("%s: restore accepted a mismatched fingerprint", tc.name)
		}
		// A refused restore must leave the target cold and usable.
		if tc.target.Stats().Observed != 0 {
			t.Errorf("%s: refused restore left state behind", tc.name)
		}
	}

	thr, err := NewMonitor(MonitorConfig{
		Features: monitorFeatures, Model: firstFeatureModel{}, Voters: 3, Threshold: -0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := thr.RestoreSnapshot(strings.NewReader(snap)); err == nil {
		t.Error("restore accepted a different threshold")
	}
}

// TestMonitorBinnedValidation checks that a snapshot fingerprinted by a
// binned-scoring monitor is refused: monitors score float rows, so its
// windows hold scores from a different scoring path.
func TestMonitorBinnedValidation(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	feedRamp(m, "drive-a", 8, 2)
	snap := encodeString(t, m)
	if strings.Contains(snap, `"binned"`) {
		t.Fatalf("float monitor wrote a binned fingerprint: %s", snap)
	}
	binned := strings.Replace(snap, `"bad_sample_budget":`, `"binned":true,"bad_sample_budget":`, 1)
	target := newTestMonitor(t, 3, false)
	if err := target.RestoreSnapshot(strings.NewReader(binned)); err == nil {
		t.Fatal("restore accepted a binned fingerprint")
	}
	if target.Stats().Observed != 0 {
		t.Error("refused restore left state behind")
	}
	if err := target.RestoreSnapshot(strings.NewReader(snap)); err != nil {
		t.Errorf("valid restore after the refusal failed: %v", err)
	}
}

// TestMonitorSnapshotRejects checks corrupt inputs and misuse fail
// loudly without panicking or half-loading.
func TestMonitorSnapshotRejects(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	feedRamp(m, "drive-a", 8, 2)
	snap := encodeString(t, m)

	used := newTestMonitor(t, 3, false)
	used.Observe("drive-x", recAt(0, 0.5))
	if err := used.RestoreSnapshot(strings.NewReader(snap)); err == nil {
		t.Error("restore onto a used monitor accepted")
	}

	fresh := newTestMonitor(t, 3, false)
	if err := fresh.RestoreSnapshot(strings.NewReader(snap[:len(snap)/2])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if err := fresh.RestoreSnapshot(strings.NewReader("not json")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	bad := strings.Replace(snap, `"version":1`, `"version":99`, 1)
	if err := fresh.RestoreSnapshot(strings.NewReader(bad)); err == nil {
		t.Error("unknown version accepted")
	}
	// Warned and queued serials must match the drive list: drive-a is
	// warned and queued, drive-b is known but never warned.
	m.Observe("drive-b", recAt(0, 0.8))
	var base monitorSnapshot
	if err := json.Unmarshal([]byte(encodeString(t, m)), &base); err != nil {
		t.Fatal(err)
	}
	qa := base.Queue[0]
	inconsistent := []struct {
		name   string
		warned []string
		queue  []MonitorWarning
	}{
		{"warned unknown drive", []string{"drive-a", "nobody"}, base.Queue},
		{"queued unknown drive", base.Warned, []MonitorWarning{qa, {Serial: "nobody", Health: -1, Hour: 3}}},
		{"queued unwarned drive", base.Warned, []MonitorWarning{qa, {Serial: "drive-b", Health: -1, Hour: 0}}},
		{"queued twice", base.Warned, []MonitorWarning{qa, qa}},
	}
	for _, tc := range inconsistent {
		snap := base
		snap.Warned, snap.Queue = tc.warned, tc.queue
		raw, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		target := newTestMonitor(t, 3, false)
		if err := target.RestoreSnapshot(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: restore accepted", tc.name)
		}
		if target.Outstanding() != 0 || target.Stats().Observed != 0 {
			t.Errorf("%s: refused restore left state behind", tc.name)
		}
	}
	// A drive's vote window must be one this monitor could have built:
	// at most Voters scores, and a vote count its scores give. drive-a's
	// window holds 3 failing scores, so 3 votes.
	windows := []struct {
		name   string
		scores []float64
		votes  int
	}{
		{"flipped votes", base.Drives[0].Scores, len(base.Drives[0].Scores) - base.Drives[0].Votes},
		{"scores beyond the window", append([]float64{-1}, base.Drives[0].Scores...), base.Drives[0].Votes + 1},
	}
	for _, tc := range windows {
		snap := base
		snap.Drives = append([]driveSnapshot(nil), base.Drives...)
		snap.Drives[0].Scores, snap.Drives[0].Votes = tc.scores, tc.votes
		raw, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		target := newTestMonitor(t, 3, false)
		if err := target.RestoreSnapshot(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: restore accepted", tc.name)
		}
		if target.Outstanding() != 0 || target.Stats().Observed != 0 {
			t.Errorf("%s: refused restore left state behind", tc.name)
		}
	}
	// After every rejection the monitor must still be cold and usable.
	if fresh.Stats().Observed != 0 {
		t.Error("rejections left state behind")
	}
	if err := fresh.RestoreSnapshot(strings.NewReader(snap)); err != nil {
		t.Errorf("valid restore after rejections failed: %v", err)
	}
}

// TestMonitorStatsAdd checks the shard-aggregation arithmetic.
func TestMonitorStatsAdd(t *testing.T) {
	a := MonitorStats{Observed: 3, Scored: 2, DroppedInvalid: 1, Quarantined: 1}
	b := MonitorStats{Observed: 5, Scored: 4, Repaired: 2, StaleResets: 1}
	sum := a
	sum.Add(b)
	want := MonitorStats{Observed: 8, Scored: 6, DroppedInvalid: 1, Repaired: 2, StaleResets: 1, Quarantined: 1}
	if sum != want {
		t.Errorf("got %+v, want %+v", sum, want)
	}
}
