// Package trace serializes SMART drive traces as CSV, the interchange
// format between cmd/gendata (dataset generation) and cmd/hddpred
// (training/evaluation), and the natural import path for real SMART dumps.
//
// The format is one row per (drive, hour) sample:
//
//	serial,family,failed,fail_hour,hour,n<ID>...,r<ID>...
//
// with one n<ID> (normalized) and one r<ID> (raw) column per catalogued
// SMART attribute. Rows of one drive must be contiguous and chronological,
// which lets the reader stream drive by drive without loading the file.
package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"hddcart/internal/smart"
)

// DriveMeta identifies a drive within a trace file.
type DriveMeta struct {
	// Serial is the drive's unique identifier.
	Serial string
	// Family is the drive family/model label.
	Family string
	// Failed reports whether the drive fails.
	Failed bool
	// FailHour is the failure instant (−1 for good drives).
	FailHour int
}

// DriveTrace is one drive's metadata plus its chronological records.
type DriveTrace struct {
	Meta    DriveMeta
	Records []smart.Record
}

// Header returns the CSV header row.
func Header() []string {
	h := []string{"serial", "family", "failed", "fail_hour", "hour"}
	for _, a := range smart.Catalogue {
		h = append(h, fmt.Sprintf("n%d", int(a.ID)))
	}
	for _, a := range smart.Catalogue {
		h = append(h, fmt.Sprintf("r%d", int(a.ID)))
	}
	return h
}

// Writer streams drive traces to CSV.
type Writer struct {
	cw          *csv.Writer
	wroteHeader bool
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{cw: csv.NewWriter(w)}
}

// WriteDrive appends one drive's records.
func (w *Writer) WriteDrive(meta DriveMeta, recs []smart.Record) error {
	if !w.wroteHeader {
		if err := w.cw.Write(Header()); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		w.wroteHeader = true
	}
	failHour := meta.FailHour
	if !meta.Failed {
		failHour = -1
	}
	row := make([]string, 0, 5+2*smart.NumAttrs)
	for i := range recs {
		rec := &recs[i]
		row = row[:0]
		row = append(row,
			meta.Serial,
			meta.Family,
			strconv.FormatBool(meta.Failed),
			strconv.Itoa(failHour),
			strconv.Itoa(rec.Hour),
		)
		for _, v := range rec.Normalized {
			row = append(row, formatValue(v))
		}
		for _, v := range rec.Raw {
			row = append(row, formatValue(v))
		}
		if err := w.cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	return nil
}

// formatValue renders a float compactly (integers without decimals).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 8, 64)
}

// Flush flushes buffered rows and reports any write error.
func (w *Writer) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// Reader streams drive traces from CSV. Rows of one drive must be
// contiguous: a serial that reappears after its drive ended is an error.
// The native format is machine-generated, so the reader is strict — any
// malformed row is an error — but every error it returns names the
// offending input line: a RowError for a row's content, encoding/csv's
// own *csv.ParseError for its CSV syntax.
//
// Rows decode exactly as encoding/csv decodes them with FieldsPerRecord
// set to the header width, error text included. Newline-aligned blocks
// of the stream are split and parsed on GOMAXPROCS goroutines, and Next
// merges their rows in stream order. The first line that holds a quote
// or a CR, or that outgrows a block, hands itself and the rest of the
// stream to encoding/csv: a quoted field may span lines, and only
// encoding/csv can tell where such a record ends. So does the first
// error Next returns, so that no goroutine outlives it.
//
// The decode goroutines stop when the stream ends or Next returns an
// error; a caller that stops reading before then must call Close.
type Reader struct {
	p       *pipeline // the block decoder; nil once it has stopped
	blk     *block    // the block being merged
	next    int       // index of blk's next row
	cur     *row      // the current row
	fields  [][]byte  // scratch for field
	cr      *csv.Reader
	crow    []string // the current row once cr has taken over
	crRow   row      // its parse
	lineOff int      // lines consumed before cr took over
	held    bool     // the current row is the first row of the next drive
	eof     bool
	seen    map[string]struct{} // serials of the drives already started
}

// numColumns is the width of the native layout, len(Header()).
var numColumns = 5 + 2*smart.NumAttrs

// NewReader returns a Reader consuming r. It validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	return openReader(r, blockSize)
}

// openReader is NewReader decoding blocks of size bytes.
func openReader(r io.Reader, size int) (*Reader, error) {
	tr := newReader(r, size)
	if err := tr.readRow(); err != nil {
		tr.Close()
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	for i, want := range Header() {
		if got := tr.field(i); got != want {
			tr.Close()
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, got, want)
		}
	}
	return tr, nil
}

// newReader returns a Reader positioned before the header, decoding
// blocks of size bytes.
func newReader(r io.Reader, size int) *Reader {
	return &Reader{
		p:      startPipeline(r, size, runtime.GOMAXPROCS(0)),
		fields: make([][]byte, numColumns),
		seen:   make(map[string]struct{}),
	}
}

// readRow advances to the next row as encoding/csv's Read would: blank
// lines are skipped, a wrong field count is a *csv.ParseError, and the
// end of the stream is io.EOF.
func (r *Reader) readRow() error {
	for r.cr == nil {
		if b := r.blk; b != nil {
			switch {
			case r.next < len(b.rows):
				r.cur = &b.rows[r.next]
				r.next++
				return r.cur.err
			case b.decline:
				r.handOff(b.data[b.cut:], b.cutLine)
				continue
			case b.err != nil:
				err := b.err
				b.err = nil
				r.handOff(nil, b.cutLine)
				return err
			}
		}
		if r.p == nil {
			return io.EOF // ended or closed
		}
		if r.blk = r.p.next(r.blk); r.blk == nil {
			r.p.stop(nil)
			r.p = nil
			return io.EOF
		}
		r.next = 0
	}
	rec, err := r.cr.Read()
	if pe, ok := err.(*csv.ParseError); ok {
		shifted := *pe
		shifted.StartLine += r.lineOff
		shifted.Line += r.lineOff
		return &shifted
	}
	if err != nil {
		return err
	}
	r.crow = rec
	line, _ := r.cr.FieldPos(0)
	r.crRow = row{line: r.lineOff + line}
	r.crRow.perr = parseRow(rec, r.crRow.line, &r.crRow.meta, &r.crRow.rec)
	r.cur = &r.crRow
	return nil
}

// handOff stops the block decoder and hands head, which follows the
// first lineOff lines of the stream, and the rest of the stream to
// encoding/csv. The rest is every block still in flight, the producer's
// partial last line and the unread source, in that order.
func (r *Reader) handOff(head []byte, lineOff int) {
	rest := append([]byte(nil), head...)
	readErr := r.p.stop(&rest)
	if r.blk != nil && r.blk.err != nil {
		readErr = r.blk.err
	}
	src := r.p.src
	r.p, r.blk = nil, nil
	in := io.MultiReader(bytes.NewReader(rest), src)
	if readErr != nil {
		in = io.MultiReader(bytes.NewReader(rest), &onceErr{err: readErr}, src)
	}
	r.cr = csv.NewReader(in)
	r.cr.FieldsPerRecord = numColumns
	r.cr.ReuseRecord = true
	r.lineOff = lineOff
}

// onceErr fails the first Read with err and reports EOF after, so a read
// error met by a block still in flight reaches encoding/csv at its place
// in the stream.
type onceErr struct{ err error }

func (o *onceErr) Read([]byte) (int, error) {
	err := o.err
	if err == nil {
		return 0, io.EOF
	}
	o.err = nil
	return 0, err
}

// Close stops the decode goroutines. Next after Close returns io.EOF.
// Close does not close the underlying reader.
func (r *Reader) Close() error {
	if r.p != nil {
		r.p.stop(nil)
		r.p, r.blk = nil, nil
	}
	r.eof, r.held = true, false
	return nil
}

// splitRow splits row on commas into dst, reporting false when row does
// not hold exactly len(dst) fields. Fields are a few bytes long, so one
// pass over the bytes beats a search call per field.
//
//hddlint:noalloc
func splitRow(dst [][]byte, row []byte) bool {
	n, start := 0, 0
	for i, c := range row {
		if c != ',' {
			continue
		}
		if n == len(dst)-1 {
			return false
		}
		dst[n] = row[start:i]
		n++
		start = i + 1
	}
	if n != len(dst)-1 {
		return false
	}
	dst[n] = row[start:]
	return true
}

var newline = []byte{'\n'}

// field returns column i of the current row.
func (r *Reader) field(i int) string {
	if r.cr != nil {
		return r.crow[i]
	}
	splitRow(r.fields, r.cur.raw)
	return string(r.fields[i])
}

// inDrive reports whether the current row belongs to the drive serial.
func (r *Reader) inDrive(serial string) bool {
	if r.cr != nil {
		return r.crow[0] == serial
	}
	return string(r.cur.serial) == serial
}

// Next returns the next drive's trace; io.EOF when the file is exhausted.
// A malformed first row of a drive is reported by the Next call that
// returns that drive, not by the one that ends the drive before it.
func (r *Reader) Next() (DriveTrace, error) {
	dt, err := r.nextDrive()
	if err != nil && err != io.EOF && r.p != nil {
		// The current row is the one in error; the stream after it goes
		// to encoding/csv, which decodes it as the blocks would have.
		r.handOff(r.blk.data[r.cur.end:], r.cur.line)
	}
	return dt, err
}

// nextDrive is Next's row-by-row state machine.
func (r *Reader) nextDrive() (DriveTrace, error) {
	var dt DriveTrace
	if !r.held {
		if r.eof {
			return dt, io.EOF
		}
		if err := r.readRow(); err != nil {
			if errors.Is(err, io.EOF) {
				r.eof = true
				return dt, io.EOF
			}
			return dt, fmt.Errorf("trace: read row: %w", err)
		}
	}
	r.held = false
	cur := r.cur
	dt.Meta.Serial, dt.Meta.Family = r.field(0), r.field(1)
	if _, ok := r.seen[dt.Meta.Serial]; ok {
		return dt, RowError{Line: cur.line, Serial: dt.Meta.Serial,
			Reason: "rows not contiguous: the drive's earlier rows end before this line"}
	}
	r.seen[dt.Meta.Serial] = struct{}{}
	dt.Meta.Failed, dt.Meta.FailHour = cur.meta.Failed, cur.meta.FailHour
	dt.Records = append(dt.Records, cur.rec)
	if cur.perr != nil {
		return dt, cur.perr
	}
	for {
		if err := r.readRow(); err != nil {
			if errors.Is(err, io.EOF) {
				r.eof = true
				return dt, nil
			}
			return dt, fmt.Errorf("trace: read row: %w", err)
		}
		cur := r.cur
		if !r.inDrive(dt.Meta.Serial) {
			r.held = true
			return dt, nil
		}
		err := cur.perr
		if err == nil && cur.rec.Hour <= dt.Records[len(dt.Records)-1].Hour {
			err = RowError{Line: cur.line, Serial: dt.Meta.Serial,
				Reason: fmt.Sprintf("rows not chronological at hour %d", cur.rec.Hour)}
		}
		if err != nil {
			return dt, err
		}
		dt.Records = append(dt.Records, cur.rec)
	}
}

// ReadAll consumes every drive in the stream.
func (r *Reader) ReadAll() ([]DriveTrace, error) {
	var out []DriveTrace
	for {
		dt, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, dt)
	}
}

// ParseRow parses one data row of the native CSV layout into the drive's
// metadata and its record, reporting failures as line-pinned RowErrors.
// It exists for streaming consumers (the serve ingest endpoint) that
// route rows one at a time and must keep going past a malformed row with
// per-line accounting, where Reader's whole-drive strictness would abort
// the batch. The row must already have len(Header()) fields.
func ParseRow(row []string, line int) (DriveMeta, smart.Record, error) {
	meta := DriveMeta{Serial: row[0], Family: row[1]}
	var rec smart.Record
	err := parseRow(row, line, &meta, &rec)
	return meta, rec, err
}

// parseRow parses the failure columns of a row into meta and its hour
// and values into rec; row[0] names the drive in errors. Every number
// goes through strconv. parseRow keeps no input string: an error copies
// what it quotes (strconv's errors clone their input too), so the row
// may be views of a buffer that is reused once parseRow returns.
func parseRow(row []string, line int, meta *DriveMeta, rec *smart.Record) error {
	rowErr := func(format string, args ...any) error {
		return RowError{Line: line, Serial: strings.Clone(row[0]), Reason: fmt.Sprintf(format, args...)}
	}
	var err error
	meta.Failed, err = strconv.ParseBool(row[2])
	if err != nil {
		return rowErr("bad failed flag %q: %v", row[2], err)
	}
	meta.FailHour, err = strconv.Atoi(row[3])
	if err != nil {
		return rowErr("bad fail_hour %q: %v", row[3], err)
	}
	rec.Hour, err = strconv.Atoi(row[4])
	if err != nil {
		return rowErr("bad hour %q: %v", row[4], err)
	}
	for i := 0; i < smart.NumAttrs; i++ {
		rec.Normalized[i], err = strconv.ParseFloat(row[5+i], 64)
		if err != nil {
			return rowErr("bad normalized value %q: %v", row[5+i], err)
		}
		rec.Raw[i], err = strconv.ParseFloat(row[5+smart.NumAttrs+i], 64)
		if err != nil {
			return rowErr("bad raw value %q: %v", row[5+smart.NumAttrs+i], err)
		}
	}
	return nil
}
