//go:build linux

package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestSnapshotShortWriteKeepsPrevious cuts a snapshot write short. With
// the process's file-size limit set to half the installed snapshot, the
// temporary file takes half the new snapshot's bytes and the next write
// fails with EFBIG. SnapshotNow must return that error and count it, the
// path must still hold the previous snapshot byte for byte with no .tmp
// beside it, and a restarted server must restore the previous state.
func TestSnapshotShortWriteKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	cfg := Config{NewMonitor: newTestMonitor, Shards: 2, SnapshotPath: path}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet := testFleet(30, 24)
	feedFleetHours(t, s, fleet, 0, 12)
	s.Drain()
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prevObserved := s.Metrics().Totals.Monitor.Observed
	feedFleetHours(t, s, fleet, 12, 24)
	s.Drain()

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	short := lim
	short.Cur = uint64(len(prev) / 2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	limited := true
	unlimit := func() {
		if limited {
			limited = false
			if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
				t.Fatalf("restoring the file-size limit: %v", err)
			}
		}
	}
	defer unlimit()
	before := s.Metrics().SnapshotErrors
	err = s.SnapshotNow()
	errors1 := s.Metrics().SnapshotErrors
	// Close's final snapshot is cut short too, so the restart below sees
	// the snapshot installed before the limit.
	closeErr := s.Close()
	unlimit()

	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("SnapshotNow = %v, want the short write's EFBIG", err)
	}
	if errors1 != before+1 {
		t.Errorf("SnapshotErrors = %d after the short write, want %d", errors1, before+1)
	}
	if closeErr == nil {
		t.Error("Close installed its final snapshot under the file-size limit")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Errorf("installed snapshot changed: %d bytes, previous %d", len(got), len(prev))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp file left behind: %v", err)
	}

	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	m := again.Metrics()
	if !m.SnapshotRestored || m.SnapshotErrors != 0 {
		t.Errorf("restart: restored=%v errors=%d, want a clean restore", m.SnapshotRestored, m.SnapshotErrors)
	}
	if m.Totals.Monitor.Observed != prevObserved {
		t.Errorf("restart restored %d observations, the previous snapshot held %d",
			m.Totals.Monitor.Observed, prevObserved)
	}
}
