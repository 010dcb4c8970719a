package hddcart

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"

	"hddcart/internal/smart"
)

// MonitorSnapshotVersion is the on-disk version of the monitor snapshot
// format. Restores reject any other version: the state is vote windows
// and quarantine flags, where a silent misread costs missed failures, so
// an unknown layout — the version 1 JSON and version 2 included — falls
// back to cold start rather than a guess.
const MonitorSnapshotVersion = 3

// monitorMagic opens every binary monitor snapshot.
var monitorMagic = []byte("HDMS")

// castagnoli is the CRC32C table of the snapshot trailers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// A version 3 snapshot is a little-endian columnar dump of the
// Monitor's slabs, drives in sorted-serial order, so equal state gives
// equal bytes:
//
//	"HDMS" u32 version
//	voters i64 · threshold f64 · use_mean u8 · features i64 ·
//	history_hours i64 · stale_after_hours i64 · bad_sample_budget i64 ·
//	u32 ncols · ncols × u8 plan column
//	stats: 10 × i64, in MonitorStats field order
//	u32 n · n × u32 serial length · serial bytes · n × u8 flags (1 = quarantined) ·
//	n × i64 bad run · n × u32 rows · Σrows × i64 hour · Σrows·ncols × f64 value ·
//	n × u32 scores · n × u32 votes · Σscores × f64 score
//	u32 warned · warned × u32 drive
//	u32 CRC32C (Castagnoli) of every byte before it
//
// The config block is a fingerprint, not a restore source: a snapshot
// only makes sense under the detection rule and feature plan that
// produced it. Rows hold the plan's columns, oldest first; votes repeat
// what the scores give, as a check. Warned drives are indexes into the
// drive list, ascending.

// snapshotHeader is a snapshot's config fingerprint and accounting.
type snapshotHeader struct {
	voters          int
	threshold       float64
	useMean         bool
	features        int
	historyHours    int
	staleAfterHours int
	budget          int
	cols            []smart.Column
	stats           MonitorStats
}

// snapshotDrive is one drive's state as a snapshot holds it.
type snapshotDrive struct {
	serial      string
	quarantined bool
	badRun      int
	rows        smart.Rows // the retained rows, chronological
	scores      []float64  // the vote window, oldest first
	votes       int
}

// snapshotContent is everything a snapshot holds; drive(i) is the i-th
// drive in serial order.
type snapshotContent struct {
	header snapshotHeader
	drives int
	drive  func(i int) snapshotDrive
	warned []uint32
}

// header returns the monitor's fingerprint and accounting.
func (m *Monitor) header() snapshotHeader {
	return snapshotHeader{
		voters:          m.cfg.Voters,
		threshold:       m.cfg.Threshold,
		useMean:         m.cfg.UseMean,
		features:        len(m.cfg.Features),
		historyHours:    m.historyHours,
		staleAfterHours: m.cfg.StaleAfterHours,
		budget:          m.budget,
		cols:            m.plan.Cols,
		stats:           m.stats,
	}
}

// content returns the monitor's state in snapshot order.
func (m *Monitor) content() snapshotContent {
	order := make([]uint32, 0, len(m.slotOf))
	for s := range m.drives {
		if m.drives[s].live {
			order = append(order, uint32(s))
		}
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return strings.Compare(m.drives[a].serial, m.drives[b].serial)
	})
	c := snapshotContent{
		header: m.header(),
		drives: len(order),
		drive: func(i int) snapshotDrive {
			s := order[i]
			d := &m.drives[s]
			w := m.window(s)
			return snapshotDrive{
				serial:      d.serial,
				quarantined: d.quarantined,
				badRun:      d.badRun,
				rows:        m.rowsOf(s),
				scores:      w.Scores,
				votes:       votesBelow(w.Scores, m.cfg.Threshold),
			}
		},
	}
	for i, s := range order {
		if m.drives[s].warned {
			c.warned = append(c.warned, uint32(i))
		}
	}
	return c
}

// EncodeSnapshot writes the monitor's complete mutable state — per-drive
// rows and vote windows, quarantine flags, the warned set and the ingest
// accounting — as a version 3 binary snapshot. The encoding is
// deterministic (drives in sorted-serial order), so equal monitor states
// encode byte-identically and a snapshot diff is a state diff; every
// float is written as its bits. A *bytes.Buffer is encoded into in
// place, so the snapshot is held once.
func (m *Monitor) EncodeSnapshot(w io.Writer) error {
	c := m.content()
	buf, ok := w.(*bytes.Buffer)
	if !ok {
		buf = new(bytes.Buffer)
	}
	if need := c.size(); buf.Available() < need {
		// Re-allocate with an eighth of headroom rather than let Grow
		// double the buffer: a caller reusing one buffer across monitors
		// of similar size (serve's hash-balanced shards differ by a few
		// percent) then allocates it once, and its peak is about one
		// snapshot, not the old buffer plus a doubled one.
		grown := make([]byte, buf.Len(), buf.Len()+need+need/8)
		copy(grown, buf.Bytes())
		*buf = *bytes.NewBuffer(grown)
	}
	if _, err := w.Write(c.append(buf.AvailableBuffer())); err != nil {
		return fmt.Errorf("hddcart: encode monitor snapshot: %w", err)
	}
	return nil
}

// size returns the length of c's encoding.
func (c *snapshotContent) size() int {
	n, nc := c.drives, len(c.header.cols)
	serialBytes, rows, scores := 0, 0, 0
	for i := range n {
		d := c.drive(i)
		serialBytes += len(d.serial)
		rows += d.rows.Len
		scores += len(d.scores)
	}
	return 8 + 6*8 + 1 + 4 + nc + 10*8 +
		4 + n*(4+1+8+4+4+4) + serialBytes + rows*8*(1+nc) + scores*8 +
		4 + 4*len(c.warned) + 4
}

// append encodes c onto dst.
func (c *snapshotContent) append(b []byte) []byte {
	h := &c.header
	n := c.drives
	start := len(b)

	le := binary.LittleEndian
	b = append(b, monitorMagic...)
	b = le.AppendUint32(b, MonitorSnapshotVersion)
	b = le.AppendUint64(b, uint64(h.voters))
	b = le.AppendUint64(b, math.Float64bits(h.threshold))
	b = append(b, boolByte(h.useMean))
	for _, v := range []int{h.features, h.historyHours, h.staleAfterHours, h.budget} {
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint32(b, uint32(len(h.cols)))
	for _, col := range h.cols {
		b = append(b, byte(col))
	}
	for _, v := range statsFields(&h.stats) {
		b = le.AppendUint64(b, uint64(*v))
	}

	b = le.AppendUint32(b, uint32(n))
	for i := range n {
		b = le.AppendUint32(b, uint32(len(c.drive(i).serial)))
	}
	for i := range n {
		b = append(b, c.drive(i).serial...)
	}
	for i := range n {
		b = append(b, boolByte(c.drive(i).quarantined))
	}
	for i := range n {
		b = le.AppendUint64(b, uint64(c.drive(i).badRun))
	}
	for i := range n {
		b = le.AppendUint32(b, uint32(c.drive(i).rows.Len))
	}
	for i := range n {
		r := c.drive(i).rows
		for j := range r.Len {
			b = le.AppendUint64(b, uint64(r.Hours[r.Phys(j)]))
		}
	}
	nc := len(h.cols)
	for i := range n {
		r := c.drive(i).rows
		for j := range r.Len {
			p := r.Phys(j)
			for _, v := range r.Vals[p*nc : p*nc+nc] {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	for i := range n {
		b = le.AppendUint32(b, uint32(len(c.drive(i).scores)))
	}
	for i := range n {
		b = le.AppendUint32(b, uint32(c.drive(i).votes))
	}
	for i := range n {
		for _, v := range c.drive(i).scores {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}

	b = le.AppendUint32(b, uint32(len(c.warned)))
	for _, i := range c.warned {
		b = le.AppendUint32(b, i)
	}
	return le.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// statsFields lists the counters of s in snapshot order.
func statsFields(s *MonitorStats) []*int {
	return []*int{
		&s.Observed, &s.Scored, &s.DroppedOutOfOrder, &s.DroppedDuplicate, &s.DroppedInvalid,
		&s.DroppedQuarantined, &s.Repaired, &s.StaleResets, &s.QuarantineEvents, &s.Quarantined,
	}
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// RestoreSnapshot loads a snapshot produced by EncodeSnapshot into a
// freshly constructed monitor, resuming every drive's vote window, rows,
// quarantine state and warned flag exactly where the encoding monitor
// left off: a restored monitor fed the remainder of a stream returns
// the same warnings from Observe as one that never stopped.
//
// The target must be unused (nothing observed) and configured with the
// same detection rule and feature plan as the snapshot's fingerprint.
// Anything else is an error that leaves the monitor empty, so callers
// can fall back to a counted cold start: a version 1 JSON snapshot or
// any version but 3, a CRC mismatch or truncation, a fingerprint
// mismatch, drives out of serial order, rows the monitor could not have
// kept, a warned drive that is not in the drive list or is out of order,
// and any vote window holding more than Voters scores or a vote count
// its scores do not give.
func (m *Monitor) RestoreSnapshot(r io.Reader) error {
	if m.stats.Observed != 0 || len(m.slotOf) != 0 {
		return fmt.Errorf("hddcart: restore onto a used monitor (%d observed)", m.stats.Observed)
	}
	var data []byte
	if b, ok := r.(*bytes.Buffer); ok {
		data = b.Next(b.Len()) // read in place: restore copies what it keeps
	} else {
		var err error
		if data, err = io.ReadAll(r); err != nil {
			return fmt.Errorf("hddcart: read monitor snapshot: %w", err)
		}
	}
	if err := m.restore(data); err != nil {
		m.reset()
		return err
	}
	return nil
}

// errSnapshotTruncated reports a snapshot that ends inside its layout.
var errSnapshotTruncated = errors.New("hddcart: monitor snapshot truncated")

// snapshotReader reads a snapshot's fields in order; after the first
// short read every read returns zero and err is set.
type snapshotReader struct {
	b   []byte
	err error
}

func (r *snapshotReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.err = errSnapshotTruncated
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// fits reports whether count items of size bytes each can still follow;
// counts are checked before anything is allocated for them.
func (r *snapshotReader) fits(count, size int) bool {
	if r.err == nil && (count < 0 || count > len(r.b)/size) {
		r.err = errSnapshotTruncated
	}
	return r.err == nil
}

func (r *snapshotReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *snapshotReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *snapshotReader) i64() int {
	if b := r.take(8); b != nil {
		return int(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *snapshotReader) f64() float64 {
	return math.Float64frombits(uint64(r.i64()))
}

func (r *snapshotReader) flag() (bool, error) {
	switch r.u8() {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, errors.New("hddcart: monitor snapshot flag byte not 0 or 1")
}

// restore decodes and installs a snapshot into the empty monitor m.
// It builds the slabs aside and installs them only once every check
// passed.
func (m *Monitor) restore(data []byte) error {
	if !bytes.HasPrefix(data, monitorMagic) {
		return errors.New("hddcart: not a binary monitor snapshot (version 1 JSON snapshots are not restored)")
	}
	if len(data) < len(monitorMagic)+8 {
		return errSnapshotTruncated
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return errors.New("hddcart: monitor snapshot CRC mismatch")
	}
	r := &snapshotReader{b: body[len(monitorMagic):]}
	if v := r.u32(); v != MonitorSnapshotVersion {
		return fmt.Errorf("hddcart: monitor snapshot version %d, want %d", v, MonitorSnapshotVersion)
	}
	var h snapshotHeader
	h.voters = r.i64()
	h.threshold = r.f64()
	var err error
	if h.useMean, err = r.flag(); err != nil {
		return err
	}
	h.features, h.historyHours, h.staleAfterHours, h.budget = r.i64(), r.i64(), r.i64(), r.i64()
	ncols := int(r.u32())
	if !r.fits(ncols, 1) {
		return r.err
	}
	for _, c := range r.take(ncols) {
		h.cols = append(h.cols, smart.Column(c))
	}
	for _, v := range statsFields(&h.stats) {
		*v = r.i64()
	}
	if r.err != nil {
		return r.err
	}
	if err := m.checkFingerprint(&h); err != nil {
		return err
	}

	// Per-drive columns. Every count is checked against the bytes left
	// before anything is sized by it.
	n := int(r.u32())
	if !r.fits(n, 4+1+8+4+4+4) {
		return r.err
	}
	R, nc, V := m.ringRows, len(m.plan.Cols), m.cfg.Voters
	drives := make([]driveState, n)
	slotOf := make(map[string]uint32, n)
	serialLen := make([]int, n)
	total := 0
	for i := range serialLen {
		serialLen[i] = int(r.u32())
		total += serialLen[i]
	}
	if !r.fits(total, 1) {
		return r.err
	}
	serials := string(r.take(total)) // one allocation backs every serial
	for i := range drives {
		d := &drives[i]
		d.serial, serials = serials[:serialLen[i]], serials[serialLen[i]:]
		d.live = true
		if i > 0 && d.serial <= drives[i-1].serial {
			if d.serial == drives[i-1].serial {
				return fmt.Errorf("hddcart: monitor snapshot repeats drive %q", d.serial)
			}
			return fmt.Errorf("hddcart: monitor snapshot drive %q out of serial order", d.serial)
		}
		slotOf[d.serial] = uint32(i)
	}
	quarantined := 0
	for i := range drives {
		if drives[i].quarantined, err = r.flag(); err != nil {
			return err
		}
		if drives[i].quarantined {
			quarantined++
		}
	}
	for i := range drives {
		if drives[i].badRun = r.i64(); drives[i].badRun < 0 {
			return fmt.Errorf("hddcart: monitor snapshot drive %q has bad run %d", drives[i].serial, drives[i].badRun)
		}
	}
	totalRows := 0
	for i := range drives {
		d := &drives[i]
		rows := int(r.u32())
		switch {
		case rows > R:
			return fmt.Errorf("hddcart: monitor snapshot drive %q holds %d rows, ring is %d", d.serial, rows, R)
		case rows > 0 && d.quarantined:
			return fmt.Errorf("hddcart: monitor snapshot keeps rows of quarantined drive %q", d.serial)
		}
		d.rows = int32(rows)
		totalRows += rows
	}
	if !r.fits(totalRows, 8*(1+nc)) {
		return r.err
	}
	hours := make([]int, n*R)
	for i := range drives {
		d := &drives[i]
		for j := range int(d.rows) {
			hr := r.i64()
			if hr < 0 || j > 0 && hr <= hours[i*R+j-1] {
				return fmt.Errorf("hddcart: monitor snapshot drive %q has row hours out of order", d.serial)
			}
			hours[i*R+j] = hr
		}
	}
	vals := make([]float64, n*R*nc)
	for i := range drives {
		lo := i * R * nc
		for j := range int(drives[i].rows) * nc {
			v := r.f64()
			if !m.plan.Cols[j%nc].Valid(v) {
				return fmt.Errorf("hddcart: monitor snapshot drive %q holds corrupt value %v", drives[i].serial, v)
			}
			vals[lo+j] = v
		}
	}
	totalScores := 0
	for i := range drives {
		d := &drives[i]
		ns := int(r.u32())
		switch {
		case ns > V:
			return fmt.Errorf("hddcart: monitor snapshot drive %q holds %d scores, window is %d", d.serial, ns, V)
		case ns > 0 && d.quarantined:
			return fmt.Errorf("hddcart: monitor snapshot keeps scores of quarantined drive %q", d.serial)
		}
		d.nscores = int32(ns)
		totalScores += ns
	}
	votes := make([]int, n)
	for i := range votes {
		votes[i] = int(r.u32())
	}
	if !r.fits(totalScores, 8) {
		return r.err
	}
	scores := make([]float64, n*V)
	for i := range drives {
		d := &drives[i]
		w := scores[i*V : i*V+int(d.nscores)]
		for j := range w {
			if w[j] = r.f64(); w[j] != w[j] {
				return fmt.Errorf("hddcart: monitor snapshot drive %q holds a NaN score", d.serial)
			}
		}
		if want := votesBelow(w, m.cfg.Threshold); votes[i] != want {
			return fmt.Errorf("hddcart: monitor snapshot drive %q has %d votes, its scores give %d", d.serial, votes[i], want)
		}
	}

	// Warned drives: ascending indexes into the drive list.
	nw := int(r.u32())
	if !r.fits(nw, 4) {
		return r.err
	}
	prev := -1
	for range nw {
		i := int(r.u32())
		if i >= n {
			return fmt.Errorf("hddcart: monitor snapshot warns unknown drive %d of %d", i, n)
		}
		if i <= prev {
			return fmt.Errorf("hddcart: monitor snapshot warns drive %q out of order", drives[i].serial)
		}
		drives[i].warned, prev = true, i
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("hddcart: monitor snapshot has %d trailing bytes", len(r.b))
	}
	if h.stats.Quarantined != quarantined {
		return fmt.Errorf("hddcart: monitor snapshot counts %d quarantined drives, holds %d", h.stats.Quarantined, quarantined)
	}

	m.drives, m.slotOf, m.hours, m.vals, m.scores = drives, slotOf, hours, vals, scores
	m.stats = h.stats
	return nil
}

// checkFingerprint rejects snapshots taken under a different detection
// configuration or feature plan than the restoring monitor's.
func (m *Monitor) checkFingerprint(h *snapshotHeader) error {
	switch {
	case h.voters != m.cfg.Voters:
		return fmt.Errorf("hddcart: snapshot voters %d, monitor has %d", h.voters, m.cfg.Voters)
	case math.Float64bits(h.threshold) != math.Float64bits(m.cfg.Threshold):
		return fmt.Errorf("hddcart: snapshot threshold %v, monitor has %v", h.threshold, m.cfg.Threshold)
	case h.useMean != m.cfg.UseMean:
		return fmt.Errorf("hddcart: snapshot use_mean %v, monitor has %v", h.useMean, m.cfg.UseMean)
	case h.features != len(m.cfg.Features):
		return fmt.Errorf("hddcart: snapshot has %d features, monitor has %d", h.features, len(m.cfg.Features))
	case !slices.Equal(h.cols, m.plan.Cols):
		return fmt.Errorf("hddcart: snapshot plan columns %v, monitor reads %v", h.cols, m.plan.Cols)
	case h.historyHours != m.historyHours:
		return fmt.Errorf("hddcart: snapshot history %d h, monitor has %d h", h.historyHours, m.historyHours)
	case h.staleAfterHours != m.cfg.StaleAfterHours:
		return fmt.Errorf("hddcart: snapshot stale timeout %d h, monitor has %d h", h.staleAfterHours, m.cfg.StaleAfterHours)
	case h.budget != m.budget:
		return fmt.Errorf("hddcart: snapshot error budget %d, monitor has %d", h.budget, m.budget)
	}
	return nil
}

// votesBelow counts the scores below threshold: the failed votes of a
// window.
func votesBelow(scores []float64, threshold float64) int {
	votes := 0
	for _, s := range scores {
		if s < threshold {
			votes++
		}
	}
	return votes
}

// reset drops any partially restored state so a failed restore leaves
// the monitor cold rather than half-loaded.
func (m *Monitor) reset() {
	m.slotOf = make(map[string]uint32)
	m.free, m.drives, m.hours, m.vals, m.scores = nil, nil, nil, nil, nil
	m.stats = MonitorStats{}
}
