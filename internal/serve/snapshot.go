package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hddcart"
)

// SnapshotVersion is the on-disk version of the service snapshot
// envelope. The envelope wraps one Monitor snapshot per shard (each
// itself versioned and checksummed — see hddcart.MonitorSnapshotVersion)
// plus the undrained warning feeds, under its own CRC32C; restores
// reject any other version, the version 1 JSON included, and fall back
// to a counted cold start.
const SnapshotVersion = 2

// snapshotMagic opens every service snapshot.
var snapshotMagic = []byte("HDSV")

// castagnoli is the CRC32C table of the envelope trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshotFile is the service snapshot envelope. Shard membership is a
// pure function of the serial (ShardOf), so restoring shard i's monitor
// into shard i of a same-shard-count server re-creates exactly the
// ownership the encoding server had; a different shard count would
// scatter drives across wrong monitors, so it is a restore mismatch.
//
// On disk it is little-endian binary:
//
//	"HDSV" u32 version · i64 taken_unix · u32 policy length · policy ·
//	u32 shards · per shard: u64 monitor snapshot length · monitor snapshot ·
//	u32 feed length · feed × (u32 serial length · serial · f64 health · i64 hour)
//	u32 CRC32C (Castagnoli) of every byte before it
type snapshotFile struct {
	Version   int
	TakenUnix int64
	Policy    string // informational; restores do not check it

	// Monitors holds shard i's Monitor snapshot at index i; Feeds its
	// undrained warning feed.
	Monitors [][]byte
	Feeds    [][]hddcart.MonitorWarning
}

// writeEnvelope streams an envelope to w: the header, then for each of
// the shards the monitor snapshot and feed that shard(i, buf) encodes
// into buf and returns, then the CRC32C trailer, computed as the bytes
// go out. buf is one buffer, reset and reused for every shard, so at
// most one shard's monitor snapshot is held in memory.
func writeEnvelope(w io.Writer, version int, takenUnix int64, policy string, shards int,
	shard func(i int, buf *bytes.Buffer) ([]hddcart.MonitorWarning, error)) error {
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	le := binary.LittleEndian
	// Write errors stick in bw and surface at Flush.
	u32 := func(v uint32) { bw.Write(le.AppendUint32(bw.AvailableBuffer(), v)) }
	u64 := func(v uint64) { bw.Write(le.AppendUint64(bw.AvailableBuffer(), v)) }
	bw.Write(snapshotMagic)
	u32(uint32(version))
	u64(uint64(takenUnix))
	u32(uint32(len(policy)))
	bw.WriteString(policy)
	u32(uint32(shards))
	var buf bytes.Buffer
	for i := range shards {
		buf.Reset()
		feed, err := shard(i, &buf)
		if err != nil {
			return err
		}
		u64(uint64(buf.Len()))
		bw.Write(buf.Bytes())
		u32(uint32(len(feed)))
		for _, warn := range feed {
			u32(uint32(len(warn.Serial)))
			bw.WriteString(warn.Serial)
			u64(math.Float64bits(warn.Health))
			u64(uint64(warn.Hour))
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(le.AppendUint32(nil, crc.Sum32()))
	return err
}

// errEnvelope reports a snapshot file that is not a whole version 2
// envelope: another format, a truncation or a checksum mismatch.
var errEnvelope = errors.New("serve: snapshot is not an intact binary envelope")

// unmarshalSnapshot decodes an envelope. The monitor snapshots alias
// data; a bad magic, checksum or layout is errEnvelope.
func unmarshalSnapshot(data []byte) (snapshotFile, error) {
	var f snapshotFile
	if !bytes.HasPrefix(data, snapshotMagic) || len(data) < len(snapshotMagic)+4 {
		return f, errEnvelope
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return f, errEnvelope
	}
	r := envelopeReader{b: body[len(snapshotMagic):], ok: true}
	f.Version = int(r.u32())
	f.TakenUnix = int64(r.u64())
	f.Policy = string(r.take(uint64(r.u32())))
	shards := r.u32()
	for i := uint32(0); i < shards && r.ok; i++ {
		f.Monitors = append(f.Monitors, r.take(r.u64()))
		n := r.u32()
		var feed []hddcart.MonitorWarning
		for j := uint32(0); j < n && r.ok; j++ {
			serial := string(r.take(uint64(r.u32())))
			feed = append(feed, hddcart.MonitorWarning{
				Serial: serial,
				Health: math.Float64frombits(r.u64()),
				Hour:   int(r.u64()),
			})
		}
		f.Feeds = append(f.Feeds, feed)
	}
	if !r.ok || len(r.b) != 0 {
		return snapshotFile{}, errEnvelope
	}
	return f, nil
}

// envelopeReader reads an envelope's fields in order; a short read
// clears ok and every later read returns zero.
type envelopeReader struct {
	b  []byte
	ok bool
}

func (r *envelopeReader) take(n uint64) []byte {
	if !r.ok || n > uint64(len(r.b)) {
		r.ok = false
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *envelopeReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *envelopeReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
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
// undrained warning feed, streamed shard by shard to a temporary file,
// synced and renamed into place so the path always holds either the
// previous or the new complete snapshot, never a torn write, even across
// a crash.
func (s *Server) SnapshotNow() error {
	if s.cfg.SnapshotPath == "" {
		return errors.New("serve: no snapshot path configured")
	}
	s.snapshotMu.Lock()
	defer s.snapshotMu.Unlock()
	taken := time.Now().Unix()
	err := installFile(s.cfg.SnapshotPath, func(w io.Writer) error {
		return writeEnvelope(w, SnapshotVersion, taken, s.cfg.Policy.String(), len(s.shards),
			func(i int, buf *bytes.Buffer) (feed []hddcart.MonitorWarning, err error) {
				s.shards[i].do(func(sh *shard) {
					err = sh.mon.EncodeSnapshot(buf)
					feed = append(feed, sh.warnings...)
				})
				return feed, err
			})
	})
	if err != nil {
		s.snapshotErrors.Add(1)
		return err
	}
	s.lastSnapshotUnix.Store(taken)
	return nil
}

// installFile replaces path with what write writes, durably: it goes to
// path.tmp, which is synced before it is renamed over path, and the
// directory is synced after, so a crash leaves the old or the new file,
// complete. path.tmp is removed when any step fails.
func installFile(path string, write func(io.Writer) error) (err error) {
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
	err = write(f)
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
	snap, err := unmarshalSnapshot(data)
	if err != nil {
		s.snapshotErrors.Add(1)
		return nil
	}
	switch {
	case snap.Version != SnapshotVersion:
		s.snapshotErrors.Add(1)
		return nil
	case len(snap.Monitors) != len(s.shards):
		// Shard membership is serial-hash mod shard count; a different
		// count would hand drives to the wrong monitors.
		s.snapshotErrors.Add(1)
		return nil
	}
	for i, raw := range snap.Monitors {
		if err := s.shards[i].mon.RestoreSnapshot(bytes.NewBuffer(raw)); err != nil {
			// Shards before i already hold restored state; rebuild
			// everything cold so the server never starts half-restored.
			s.snapshotErrors.Add(1)
			return s.rebuildCold()
		}
		s.shards[i].warnings = snap.Feeds[i]
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
