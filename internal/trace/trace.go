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
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

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
// set to the header width, error text included. A line holding no quote
// and no CR is split on commas in place, in the read buffer. The first
// line that holds either, or that outgrows the buffer, hands itself and
// the rest of the stream to encoding/csv: a quoted field may span lines,
// and only encoding/csv can tell where such a record ends.
type Reader struct {
	br      *bufio.Reader
	fields  [][]byte // the current row, split in place while cr is nil
	line    int      // physical lines the splitter consumed
	cr      *csv.Reader
	crow    []string // the current row once cr has taken over
	lineOff int      // lines consumed before cr took over
	rowLine int      // input line of the current row
	held    bool     // the current row is the first row of the next drive
	eof     bool
	seen    map[string]struct{} // serials of the drives already started
}

// readBufSize is the splitter's read buffer; a longer line goes to
// encoding/csv.
const readBufSize = 64 << 10

// NewReader returns a Reader consuming r. It validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	tr := newReader(r)
	if err := tr.readRow(); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	for i, want := range Header() {
		if got := tr.field(i); got != want {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, got, want)
		}
	}
	return tr, nil
}

// newReader returns a Reader positioned before the header.
func newReader(r io.Reader) *Reader {
	return &Reader{
		br:     bufio.NewReaderSize(r, readBufSize),
		fields: make([][]byte, len(Header())),
		seen:   make(map[string]struct{}),
	}
}

// readRow advances to the next row as encoding/csv's Read would: blank
// lines are skipped, a wrong field count is a *csv.ParseError, and the
// end of the stream is io.EOF.
func (r *Reader) readRow() error {
	for r.cr == nil {
		b, err := r.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			r.decline(b, r.line)
			break
		}
		if len(b) == 0 || (err != nil && err != io.EOF) {
			return err
		}
		r.line++
		row := b
		if row[len(row)-1] == '\n' {
			row = row[:len(row)-1]
		}
		if len(row) == 0 {
			continue
		}
		if bytes.IndexByte(row, '"') >= 0 || bytes.IndexByte(row, '\r') >= 0 {
			r.decline(b, r.line-1)
			break
		}
		r.rowLine = r.line
		if !splitRow(r.fields, row) {
			return &csv.ParseError{StartLine: r.line, Line: r.line, Column: 1, Err: csv.ErrFieldCount}
		}
		return nil
	}
	row, err := r.cr.Read()
	if pe, ok := err.(*csv.ParseError); ok {
		shifted := *pe
		shifted.StartLine += r.lineOff
		shifted.Line += r.lineOff
		return &shifted
	}
	if err != nil {
		return err
	}
	r.crow = row
	line, _ := r.cr.FieldPos(0)
	r.rowLine = r.lineOff + line
	return nil
}

// decline hands line b, which follows the first before lines, and the
// rest of the stream to encoding/csv. b aliases the read buffer, so it is
// copied.
func (r *Reader) decline(b []byte, before int) {
	r.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(b)), r.br))
	r.cr.FieldsPerRecord = len(r.fields)
	r.cr.ReuseRecord = true
	r.lineOff = before
}

// splitRow splits row on commas into dst, reporting false when row does
// not hold exactly len(dst) fields.
//
//hddlint:noalloc
func splitRow(dst [][]byte, row []byte) bool {
	if bytes.Count(row, comma) != len(dst)-1 {
		return false
	}
	last := len(dst) - 1
	for i := 0; i < last; i++ {
		j := bytes.IndexByte(row, ',')
		dst[i] = row[:j]
		row = row[j+1:]
	}
	dst[last] = row
	return true
}

var comma = []byte{','}

// field returns column i of the current row.
func (r *Reader) field(i int) string {
	if r.cr != nil {
		return r.crow[i]
	}
	return string(r.fields[i])
}

// inDrive reports whether the current row belongs to the drive serial.
func (r *Reader) inDrive(serial string) bool {
	if r.cr != nil {
		return r.crow[0] == serial
	}
	return string(r.fields[0]) == serial
}

// parse parses the current row into meta and rec.
func (r *Reader) parse(meta *DriveMeta, rec *smart.Record) error {
	if r.cr != nil {
		return parseRow(r.crow, r.rowLine, meta, rec)
	}
	return parseRow(r.fields, r.rowLine, meta, rec)
}

// Next returns the next drive's trace; io.EOF when the file is exhausted.
// A malformed first row of a drive is reported by the Next call that
// returns that drive, not by the one that ends the drive before it.
func (r *Reader) Next() (DriveTrace, error) {
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
	dt.Meta.Serial, dt.Meta.Family = r.field(0), r.field(1)
	if _, ok := r.seen[dt.Meta.Serial]; ok {
		return dt, RowError{Line: r.rowLine, Serial: dt.Meta.Serial,
			Reason: "rows not contiguous: the drive's earlier rows end before this line"}
	}
	r.seen[dt.Meta.Serial] = struct{}{}
	dt.Records = append(dt.Records, smart.Record{})
	if err := r.parse(&dt.Meta, &dt.Records[0]); err != nil {
		return dt, err
	}
	for {
		if err := r.readRow(); err != nil {
			if errors.Is(err, io.EOF) {
				r.eof = true
				return dt, nil
			}
			return dt, fmt.Errorf("trace: read row: %w", err)
		}
		if !r.inDrive(dt.Meta.Serial) {
			r.held = true
			return dt, nil
		}
		n := len(dt.Records)
		dt.Records = append(dt.Records, smart.Record{})
		meta := DriveMeta{Serial: dt.Meta.Serial}
		err := r.parse(&meta, &dt.Records[n])
		if err == nil && dt.Records[n].Hour <= dt.Records[n-1].Hour {
			err = RowError{Line: r.rowLine, Serial: dt.Meta.Serial,
				Reason: fmt.Sprintf("rows not chronological at hour %d", dt.Records[n].Hour)}
		}
		if err != nil {
			dt.Records = dt.Records[:n]
			return dt, err
		}
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
// and values into rec; meta.Serial names the drive in errors. Every
// number goes through strconv, and a []byte row is converted field by
// field without allocating.
func parseRow[T ~string | ~[]byte](row []T, line int, meta *DriveMeta, rec *smart.Record) error {
	rowErr := func(format string, args ...any) error {
		return RowError{Line: line, Serial: meta.Serial, Reason: fmt.Sprintf(format, args...)}
	}
	var err error
	meta.Failed, err = strconv.ParseBool(string(row[2]))
	if err != nil {
		return rowErr("bad failed flag %q: %v", string(row[2]), err)
	}
	meta.FailHour, err = strconv.Atoi(string(row[3]))
	if err != nil {
		return rowErr("bad fail_hour %q: %v", string(row[3]), err)
	}
	rec.Hour, err = strconv.Atoi(string(row[4]))
	if err != nil {
		return rowErr("bad hour %q: %v", string(row[4]), err)
	}
	for i := 0; i < smart.NumAttrs; i++ {
		rec.Normalized[i], err = strconv.ParseFloat(string(row[5+i]), 64)
		if err != nil {
			return rowErr("bad normalized value %q: %v", string(row[5+i]), err)
		}
		rec.Raw[i], err = strconv.ParseFloat(string(row[5+smart.NumAttrs+i]), 64)
		if err != nil {
			return rowErr("bad raw value %q: %v", string(row[5+smart.NumAttrs+i]), err)
		}
	}
	return nil
}
