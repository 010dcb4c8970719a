package hddcart

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// restored monitor re-encodes to byte-identical bytes, proving every
// piece of mutable state (rows, windows, warned set, stats) survived the
// round trip.
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
}

// TestEncodeSnapshotReusedBuffer pins the growth of a buffer reused
// across monitors, as serve reuses one across its shards: the first
// encode leaves room for a snapshot a few percent larger, so the second
// encode re-allocates nothing, and its bytes equal a fresh encode.
func TestEncodeSnapshotReusedBuffer(t *testing.T) {
	small, large := newTestMonitor(t, 3, false), newTestMonitor(t, 3, false)
	for d := range 3200 {
		if d < 3000 {
			feedRamp(small, fmt.Sprintf("drive-%04d", d), 12, 100)
		}
		feedRamp(large, fmt.Sprintf("drive-%04d", d), 12, 100)
	}
	var buf bytes.Buffer
	if err := small.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	first, capFirst := buf.Len(), buf.Cap()
	buf.Reset()
	if err := large.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Cap() != capFirst {
		t.Errorf("encoding %d bytes after %d re-allocated the reused buffer: cap %d → %d",
			buf.Len(), first, capFirst, buf.Cap())
	}
	if !bytes.Equal(buf.Bytes(), encodeBytes(t, large)) {
		t.Error("encoding into a reused buffer changed the snapshot bytes")
	}
}

// TestMonitorSnapshotEmptySerial checks that a drive Observe accepted
// under the empty serial survives a round trip: a snapshot refusing it
// would cold-start every drive of the monitor at each restart.
func TestMonitorSnapshotEmptySerial(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	feedRamp(m, "", 8, 2)
	feedRamp(m, "drive-a", 8, 100)
	snap := encodeString(t, m)
	restored := newTestMonitor(t, 3, false)
	if err := restored.RestoreSnapshot(strings.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if encodeString(t, restored) != snap {
		t.Error("snapshot not byte-identical after round trip")
	}
	// The empty-serial drive is still warned: failing on, it stays quiet.
	if w, ok := restored.Observe("", recAt(8, -0.8)); ok {
		t.Errorf("restored empty-serial drive warned again: %+v", w)
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
// drives over 60 hours with resolves along the way, then a snapshot, a
// restore and 30 more hours of observing and resolving on the restored
// monitor. The snapshot bytes and the stream of warnings Observe returns
// must not move when the monitor's internals change; the bytes digest
// moves only with MonitorSnapshotVersion (it was re-pinned for the
// binary version 2 format and for version 3, with the warnings
// unchanged).
func TestMonitorSnapshotDigest(t *testing.T) {
	m := newTestMonitor(t, 3, false)
	rng := rand.New(rand.NewSource(3))
	var stream []MonitorWarning
	step := func(m *Monitor, h int) {
		for d := 0; d < 300; d++ {
			if w, ok := m.Observe(fmt.Sprintf("S%04d", d), recAt(h, rng.Float64()*2-1-float64(d%7)*0.05)); ok {
				stream = append(stream, w)
			}
		}
		if h%11 == 0 {
			m.Resolve(fmt.Sprintf("S%04d", h))
		}
	}
	for h := 0; h < 60; h++ {
		step(m, h)
	}
	snap := encodeString(t, m)
	if got, want := fmt.Sprintf("%d %x", len(snap), sha256.Sum256([]byte(snap))),
		"31954 3494119667f4c80a857131bf3159773b2643fa3bf702c932884b6c58c7b120bd"; got != want {
		t.Errorf("snapshot length and sha256 = %s, want %s", got, want)
	}
	restored := newTestMonitor(t, 3, false)
	if err := restored.RestoreSnapshot(strings.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	for h := 60; h < 90; h++ {
		step(restored, h)
	}
	if got, want := fmt.Sprintf("%d %x", len(stream), sha256.Sum256([]byte(fmt.Sprint(stream)))),
		"307 0f1e4e19926c02f56b0f750aed039111d364576c22a89e2f0bcb7e719918b347"; got != want {
		t.Errorf("warning count and sha256 = %s, want %s", got, want)
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

// withCRC returns body followed by its CRC32C trailer: a snapshot whose
// checksum holds whatever the body says.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// tampered encodes m's snapshot after edit rewrites its content.
func tampered(m *Monitor, edit func(c *snapshotContent)) []byte {
	c := m.content()
	edit(&c)
	return c.append(nil)
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
	if err := fresh.RestoreSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	bad := []byte(snap[:len(snap)-4])
	binary.LittleEndian.PutUint32(bad[len(monitorMagic):], 99)
	if err := fresh.RestoreSnapshot(bytes.NewReader(withCRC(bad))); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("unknown version: restore error %v", err)
	}
	// A version 2 snapshot, whose layout held a warning queue, is refused
	// as any other version is, even under a valid CRC.
	binary.LittleEndian.PutUint32(bad[len(monitorMagic):], 2)
	if err := fresh.RestoreSnapshot(bytes.NewReader(withCRC(bad))); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version 2: restore error %v", err)
	}
	// Warned drives must match the drive list: drive-a (index 0) is
	// warned, drive-b (index 1) is known but never warned; index 2 names
	// no drive.
	m.Observe("drive-b", recAt(0, 0.8))
	inconsistent := []struct {
		name   string
		warned []uint32
	}{
		{"warned unknown drive", []uint32{0, 2}},
		{"warned out of order", []uint32{1, 0}},
		{"warned twice", []uint32{0, 0}},
	}
	for _, tc := range inconsistent {
		raw := tampered(m, func(c *snapshotContent) { c.warned = tc.warned })
		target := newTestMonitor(t, 3, false)
		if err := target.RestoreSnapshot(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: restore accepted", tc.name)
		}
		if target.Stats().Observed != 0 {
			t.Errorf("%s: refused restore left state behind", tc.name)
		}
	}
	// A drive's vote window must be one this monitor could have built:
	// at most Voters scores, and a vote count its scores give. drive-a's
	// window holds 3 failing scores, so 3 votes.
	a := m.content().drive(0)
	windows := []struct {
		name   string
		scores []float64
		votes  int
	}{
		{"flipped votes", a.scores, len(a.scores) - a.votes},
		{"scores beyond the window", append([]float64{-1}, a.scores...), a.votes + 1},
	}
	for _, tc := range windows {
		raw := tampered(m, func(c *snapshotContent) {
			drive := c.drive
			c.drive = func(i int) snapshotDrive {
				d := drive(i)
				if i == 0 {
					d.scores, d.votes = tc.scores, tc.votes
				}
				return d
			}
		})
		target := newTestMonitor(t, 3, false)
		if err := target.RestoreSnapshot(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: restore accepted", tc.name)
		}
		if target.Stats().Observed != 0 {
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

// smallSnapshot is a two-drive snapshot holding every kind of state: a
// warned drive, a healthy one, rows, scores and stats.
func smallSnapshot(t testing.TB) []byte {
	m, err := NewMonitor(MonitorConfig{Features: monitorFeatures, Model: firstFeatureModel{}, Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	feedRamp(m, "a", 6, 2)
	feedRamp(m, "b", 4, 100)
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMonitorSnapshotCorruption flips one bit at every byte offset of a
// small snapshot and truncates it at every length: each must be refused
// and leave the monitor cold, never restore silently.
func TestMonitorSnapshotCorruption(t *testing.T) {
	snap := smallSnapshot(t)
	restore := func(data []byte) error {
		m := newTestMonitor(t, 3, false)
		err := m.RestoreSnapshot(bytes.NewReader(data))
		if err != nil && m.Stats().Observed != 0 {
			t.Fatalf("refused restore left state behind: %v", err)
		}
		return err
	}
	if err := restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		flipped := append([]byte(nil), snap...)
		flipped[i] ^= 1 << (i % 8)
		if restore(flipped) == nil {
			t.Errorf("bit %d of byte %d flipped: restore accepted", i%8, i)
		}
	}
	for n := range len(snap) {
		if restore(snap[:n]) == nil {
			t.Errorf("truncated to %d of %d bytes: restore accepted", n, len(snap))
		}
	}
}

// TestMonitorSnapshotRejectsV1 checks a version 1 JSON snapshot is
// refused rather than misread.
func TestMonitorSnapshotRejectsV1(t *testing.T) {
	const v1 = `{"version":1,"voters":3,"threshold":0,"features":1,"history_hours":2,"bad_sample_budget":8,` +
		`"drives":[{"serial":"a","history":[{"Hour":0}],"scores":[-0.8]}],"stats":{"Observed":1}}` + "\n"
	m := newTestMonitor(t, 3, false)
	if err := m.RestoreSnapshot(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("v1 JSON snapshot: restore error %v", err)
	}
	if m.Stats().Observed != 0 {
		t.Error("refused restore left state behind")
	}
}

// FuzzMonitorSnapshotDecode feeds arbitrary bytes to RestoreSnapshot,
// as they are and with their last four bytes replaced by a valid CRC so
// the fuzzer reaches past the checksum. Decoding must never panic, and a
// snapshot it accepts must re-encode byte-identically: the format has one
// encoding per state.
func FuzzMonitorSnapshotDecode(f *testing.F) {
	f.Add(smallSnapshot(f))
	f.Add(encodeBytes(f, newTestMonitor(f, 3, false)))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, withCRC(data[:len(data)-4]))
		}
		for _, in := range inputs {
			m := newTestMonitor(t, 3, false)
			if err := m.RestoreSnapshot(bytes.NewReader(in)); err != nil {
				continue
			}
			if out := encodeBytes(t, m); !bytes.Equal(out, in) {
				t.Fatalf("accepted snapshot re-encodes differently:\n in %x\nout %x", in, out)
			}
		}
	})
}

func encodeBytes(t testing.TB, m *Monitor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
