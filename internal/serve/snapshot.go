package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hddcart"
)

// SnapshotVersion is the on-disk version of the service snapshot
// envelope. The envelope wraps one Monitor snapshot per shard (each
// itself versioned — see hddcart.MonitorSnapshotVersion) plus the
// undrained warning feeds; restores reject any other version and fall
// back to a counted cold start.
const SnapshotVersion = 1

// snapshotFile is the service snapshot envelope. Shard membership is a
// pure function of the serial (ShardOf), so restoring shard i's monitor
// into shard i of a same-shard-count server re-creates exactly the
// ownership the encoding server had; a different shard count would
// scatter drives across wrong monitors, so it is a restore mismatch.
type snapshotFile struct {
	Version   int    `json:"version"`
	Shards    int    `json:"shards"`
	TakenUnix int64  `json:"taken_unix"`
	Policy    string `json:"policy"` // informational; restores do not check it

	// Monitors holds shard i's Monitor snapshot at index i; Feeds its
	// undrained warning feed.
	Monitors []json.RawMessage          `json:"monitors"`
	Feeds    [][]hddcart.MonitorWarning `json:"feeds"`
}

// snapshotState is the Server's snapshot bookkeeping, embedded so
// serve.go stays focused on the ingest path.
type snapshotState struct {
	// snapshotMu serializes snapshot writers (the ticker, Close and
	// HTTP-triggered SnapshotNow calls).
	snapshotMu sync.Mutex
	// lastSnapshotUnix is the taken-time of the last successful write
	// or restore (0 = never); exported as the snapshot-age metric.
	lastSnapshotUnix atomic.Int64
	// snapshotErrors counts failed writes and failed restores.
	snapshotErrors atomic.Int64
	// restored reports whether startup loaded prior state.
	restored atomic.Bool

	stopTicker chan struct{}
	tickerDone chan struct{}
}

// snapshotLoop periodically writes the state snapshot until Close.
func (s *Server) snapshotLoop() {
	defer close(s.tickerDone)
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Failures are counted in SnapshotErrors and retried next
			// tick; a snapshot hiccup must not stop ingest.
			_ = s.SnapshotNow()
		case <-s.stopTicker:
			return
		}
	}
}

// SnapshotNow writes the service state snapshot to Config.SnapshotPath:
// each shard's monitor state (gathered inside the owning goroutine, so
// every shard's contribution is internally consistent) plus its
// undrained warning feed, written to a temporary file, synced and
// renamed into place so the path always holds either the previous or the
// new complete snapshot, never a torn write, even across a crash.
func (s *Server) SnapshotNow() error {
	if s.cfg.SnapshotPath == "" {
		return errors.New("serve: no snapshot path configured")
	}
	s.snapshotMu.Lock()
	defer s.snapshotMu.Unlock()
	snap := snapshotFile{
		Version:   SnapshotVersion,
		Shards:    len(s.shards),
		TakenUnix: time.Now().Unix(),
		Policy:    s.cfg.Policy.String(),
		Monitors:  make([]json.RawMessage, 0, len(s.shards)),
		Feeds:     make([][]hddcart.MonitorWarning, 0, len(s.shards)),
	}
	for _, sh := range s.shards {
		var buf bytes.Buffer
		var feed []hddcart.MonitorWarning
		var encErr error
		sh.do(func(sh *shard) {
			encErr = sh.mon.EncodeSnapshot(&buf)
			feed = append(feed, sh.warnings...)
		})
		if encErr != nil {
			s.snapshotErrors.Add(1)
			return fmt.Errorf("serve: snapshot shard %d: %w", sh.id, encErr)
		}
		snap.Monitors = append(snap.Monitors, json.RawMessage(bytes.TrimSpace(buf.Bytes())))
		snap.Feeds = append(snap.Feeds, feed)
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		s.snapshotErrors.Add(1)
		return fmt.Errorf("serve: encode snapshot: %w", err)
	}
	data = append(data, '\n')
	if err := installFile(s.cfg.SnapshotPath, data); err != nil {
		s.snapshotErrors.Add(1)
		return err
	}
	s.lastSnapshotUnix.Store(snap.TakenUnix)
	return nil
}

// installFile replaces path with data durably: data goes to path.tmp,
// which is synced before it is renamed over path, and the directory is
// synced after, so a crash leaves the old or the new file, complete.
// path.tmp is removed when any step fails.
func installFile(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: write snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("serve: install snapshot: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = dir.Sync()
		if cerr := dir.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("serve: sync snapshot directory: %w", err)
	}
	return nil
}

// restore loads Config.SnapshotPath into the freshly built shards. It
// runs from New before any shard goroutine starts, so the monitors are
// plainly accessible. A missing file is a normal cold start; an
// unreadable, mismatched or corrupt snapshot is a *counted* cold start
// (SnapshotErrors) — the service must come up on bad state files, and
// the cost of quietly resuming from wrong state (missed failures)
// dwarfs the cost of re-warming windows. Only a NewMonitor failure
// while rebuilding after a partial restore aborts startup.
func (s *Server) restore() error {
	data, err := os.ReadFile(s.cfg.SnapshotPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		s.snapshotErrors.Add(1)
		return nil
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		s.snapshotErrors.Add(1)
		return nil
	}
	switch {
	case snap.Version != SnapshotVersion:
		s.snapshotErrors.Add(1)
		return nil
	case snap.Shards != len(s.shards):
		// Shard membership is serial-hash mod shard count; a different
		// count would hand drives to the wrong monitors.
		s.snapshotErrors.Add(1)
		return nil
	case len(snap.Monitors) != snap.Shards:
		s.snapshotErrors.Add(1)
		return nil
	}
	for i, raw := range snap.Monitors {
		if err := s.shards[i].mon.RestoreSnapshot(bytes.NewReader(raw)); err != nil {
			// Shards before i already hold restored state; rebuild
			// everything cold so the server never starts half-restored.
			s.snapshotErrors.Add(1)
			return s.rebuildCold()
		}
		if i < len(snap.Feeds) && len(snap.Feeds[i]) > 0 {
			s.shards[i].warnings = append([]hddcart.MonitorWarning(nil), snap.Feeds[i]...)
		}
	}
	s.lastSnapshotUnix.Store(snap.TakenUnix)
	s.restored.Store(true)
	return nil
}

// rebuildCold replaces every shard's monitor and feed with fresh ones
// after a partial restore failure.
func (s *Server) rebuildCold() error {
	for i, sh := range s.shards {
		mon, err := s.cfg.NewMonitor()
		if err != nil {
			return fmt.Errorf("serve: rebuild shard %d after failed restore: %w", i, err)
		}
		sh.mon = mon
		sh.warnings = nil
	}
	return nil
}

// sortWarningsByHourSerial is SortWarnings' comparison.
func sortWarningsByHourSerial(ws []hddcart.MonitorWarning) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Hour != ws[j].Hour {
			return ws[i].Hour < ws[j].Hour
		}
		return ws[i].Serial < ws[j].Serial
	})
}
