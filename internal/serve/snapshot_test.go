package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hddcart"
)

// feedFleetHours feeds hours [from, to) of every drive's stream.
func feedFleetHours(t *testing.T, s *Server, fleet []driveStream, from, to int) {
	t.Helper()
	for _, d := range fleet {
		for _, rec := range d.recs {
			if rec.Hour < from || rec.Hour >= to {
				continue
			}
			if got := s.Ingest(d.serial, rec); got != Accepted {
				t.Fatalf("ingest %s hour %d: disposition %v", d.serial, rec.Hour, got)
			}
		}
	}
}

// TestServeSnapshotResume is the kill-mid-window contract: stop a
// server partway through the fleet's streams (final snapshot on Close),
// bring up a fresh server on the snapshot, replay the remainder — the
// combined warning feed and final fleet stats must be identical to an
// uninterrupted run's.
func TestServeSnapshotResume(t *testing.T) {
	const shards, hours, cut = 4, 24, 9 // cut lands mid-deterioration-window
	fleet := testFleet(30, hours)
	path := filepath.Join(t.TempDir(), "state.snap")

	// Uninterrupted baseline.
	base, err := New(Config{NewMonitor: newTestMonitor, Shards: shards, QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	feedFleetHours(t, base, fleet, 0, hours)
	base.Drain()
	wantWs := base.Warnings()
	wantStats := base.Metrics().Totals.Monitor
	base.Close()
	if len(wantWs) == 0 {
		t.Fatal("baseline raised no warnings")
	}

	// First life: ingest the first cut hours, then die (Close snapshots;
	// the feed is deliberately NOT drained — it must ride the snapshot).
	first, err := New(Config{NewMonitor: newTestMonitor, Shards: shards, QueueDepth: 4096, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	feedFleetHours(t, first, fleet, 0, cut)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: restore and replay the remainder.
	second, err := New(Config{NewMonitor: newTestMonitor, Shards: shards, QueueDepth: 4096, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	m := second.Metrics()
	if !m.SnapshotRestored {
		t.Fatal("second life did not restore the snapshot")
	}
	if m.SnapshotErrors != 0 {
		t.Fatalf("restore counted %d snapshot errors", m.SnapshotErrors)
	}
	if m.SnapshotAgeSeconds < 0 {
		t.Error("snapshot age unset after restore")
	}
	feedFleetHours(t, second, fleet, cut, hours)
	second.Drain()
	gotWs := second.Warnings()
	if len(gotWs) != len(wantWs) {
		t.Fatalf("resumed run raised %d warnings, uninterrupted %d", len(gotWs), len(wantWs))
	}
	for i := range gotWs {
		if gotWs[i] != wantWs[i] {
			t.Errorf("warning %d: resumed %+v, uninterrupted %+v", i, gotWs[i], wantWs[i])
		}
	}
	if got := second.Metrics().Totals.Monitor; got != wantStats {
		t.Errorf("final stats diverged: resumed %+v, uninterrupted %+v", got, wantStats)
	}
}

// TestServeSnapshotColdStarts checks every refusal path is a counted
// cold start: the server must come up, count the error, and hold no
// restored state.
func TestServeSnapshotColdStarts(t *testing.T) {
	dir := t.TempDir()
	valid := filepath.Join(dir, "valid.snap")
	src, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, SnapshotPath: valid})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 6; h++ {
		src.Ingest("drive-0000", recAt(h, -0.9))
	}
	src.Close()
	validData, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		write func(path string) error
	}{
		{"garbage", func(p string) error { return os.WriteFile(p, []byte("not a snapshot"), 0o644) }},
		{"truncated", func(p string) error { return os.WriteFile(p, validData[:len(validData)/2], 0o644) }},
		{"bad version", func(p string) error {
			var snap snapshotFile
			if err := json.Unmarshal(validData, &snap); err != nil {
				return err
			}
			snap.Version = 99
			data, err := json.Marshal(&snap)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data, 0o644)
		}},
		{"corrupt shard state", func(p string) error {
			var snap snapshotFile
			if err := json.Unmarshal(validData, &snap); err != nil {
				return err
			}
			snap.Monitors[2] = json.RawMessage(`{"version":1}`) // fingerprint mismatch
			data, err := json.Marshal(&snap)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data, 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".snap")
			if err := tc.write(path); err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, SnapshotPath: path})
			if err != nil {
				t.Fatalf("cold start failed: %v", err)
			}
			defer s.Close()
			m := s.Metrics()
			if m.SnapshotRestored {
				t.Error("bad snapshot reported as restored")
			}
			if m.SnapshotErrors != 1 {
				t.Errorf("counted %d snapshot errors, want 1", m.SnapshotErrors)
			}
			if m.Totals.Monitor.Observed != 0 {
				t.Errorf("cold start holds %d observed records", m.Totals.Monitor.Observed)
			}
			// The cold server must still work.
			if got := s.Ingest("drive-0000", recAt(0, 0.5)); got != Accepted {
				t.Errorf("cold server refused ingest: %v", got)
			}
		})
	}

	// Shard-count mismatch: membership is serial mod shard count, so an
	// 8-shard server must refuse a 4-shard snapshot.
	t.Run("shard mismatch", func(t *testing.T) {
		s, err := New(Config{NewMonitor: newTestMonitor, Shards: 8, SnapshotPath: valid})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		m := s.Metrics()
		if m.SnapshotRestored || m.SnapshotErrors != 1 {
			t.Errorf("restored=%v errors=%d, want cold start with 1 error", m.SnapshotRestored, m.SnapshotErrors)
		}
	})

	// A missing file is a normal (uncounted) cold start.
	t.Run("missing file", func(t *testing.T) {
		s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, SnapshotPath: filepath.Join(dir, "absent.snap")})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if m := s.Metrics(); m.SnapshotRestored || m.SnapshotErrors != 0 {
			t.Errorf("restored=%v errors=%d, want clean cold start", m.SnapshotRestored, m.SnapshotErrors)
		}
	})
}

// TestSnapshotFailedInstallCleansUp points SnapshotPath at a directory:
// the snapshot cannot be installed, so Close reports it, SnapshotErrors
// counts it and no temporary file is left behind.
func TestSnapshotFailedInstallCleansUp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest("drive-0000", recAt(0, 0.5))
	s.Drain()
	before := s.Metrics().SnapshotErrors
	if err := s.Close(); err == nil {
		t.Fatal("Close installed a snapshot over a directory")
	}
	if got := s.Metrics().SnapshotErrors; got != before+1 {
		t.Errorf("SnapshotErrors = %d after the failed install, want %d", got, before+1)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp file left behind: %v", err)
	}
}

// TestSnapshotAtomicInstall checks the tmp+rename discipline: after a
// snapshot the path holds complete versioned JSON and no tmp file
// remains.
func TestSnapshotAtomicInstall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for h := 0; h < 4; h++ {
		s.Ingest("drive-0000", recAt(h, 0.5))
	}
	s.Drain()
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp file left behind: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Version != SnapshotVersion || snap.Shards != 2 || len(snap.Monitors) != 2 {
		t.Errorf("snapshot header %+v", snap)
	}
	if m := s.Metrics(); m.SnapshotAgeSeconds < 0 {
		t.Error("snapshot age still unset after SnapshotNow")
	}
}

// TestSnapshotTicker checks the periodic writer produces a snapshot
// without an explicit SnapshotNow call.
func TestSnapshotTicker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	s, err := New(Config{
		NewMonitor:    newTestMonitor,
		Shards:        2,
		SnapshotPath:  path,
		SnapshotEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Ingest("drive-0000", recAt(0, 0.5))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker wrote no snapshot within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotSurvivesWarningRestore checks a restored-but-undrained
// feed keeps hddcart warning identity (no duplication, no loss) across
// two snapshot generations.
func TestSnapshotSurvivesWarningRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	first, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 6; h++ {
		first.Ingest("drive-0000", recAt(h, -0.9))
	}
	first.Close() // feed (1 warning) rides the snapshot

	second, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	ws := second.Warnings()
	if len(ws) != 1 {
		t.Fatalf("restored feed has %d warnings, want 1", len(ws))
	}
	want := hddcart.MonitorWarning{Serial: "drive-0000", Health: -0.9, Hour: 2}
	if ws[0].Serial != want.Serial || ws[0].Hour != want.Hour {
		t.Errorf("restored warning %+v, want serial/hour of %+v", ws[0], want)
	}
}
