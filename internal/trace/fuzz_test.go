package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hddcart/internal/smart"
)

// The parser fuzz targets enforce the two ingest invariants the chaos
// suite builds on: no input can panic a parser, and whatever a parser
// accepts is clean — chronological hours, finite in-domain values, and
// row-accurate accounting for everything it rejected.

func FuzzBackblazeCSV(f *testing.F) {
	f.Add([]byte(backblazeSample))
	f.Add([]byte("date,serial_number,model,failure,smart_1_normalized,smart_1_raw\n" +
		"2024-01-01,X,M,0,100,1\n"))
	// Duplicated snapshot, NaN/Inf/out-of-range values, missing serial.
	f.Add([]byte("date,serial_number,model,failure,smart_5_normalized,smart_5_raw\n" +
		"2024-01-01,X,M,0,NaN,1e999\n" +
		"2024-01-01,X,M,1,100,2\n" +
		"2024-01-02,,M,0,100,3\n" +
		"2024-01-03,X,M2,0,-5,1e300\n"))
	// Truncated rows and stray quotes.
	f.Add([]byte("date,serial_number,model,failure,smart_9_raw\n" +
		"2024-01-01,X\n" +
		"2024-\"01,X,M,0,7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		drives, stats, err := ReadBackblazeStats(bytes.NewReader(data), BackblazeOptions{})
		if err != nil {
			return // stream-level rejection is fine; panics are not
		}
		if stats.Drives != len(drives) {
			t.Fatalf("stats.Drives = %d, drives = %d", stats.Drives, len(drives))
		}
		for _, dt := range drives {
			if dt.Meta.Serial == "" {
				t.Fatal("accepted drive without a serial")
			}
			if len(dt.Records) == 0 {
				t.Fatalf("drive %s has no records", dt.Meta.Serial)
			}
			for i := range dt.Records {
				rec := &dt.Records[i]
				if i > 0 && rec.Hour <= dt.Records[i-1].Hour {
					t.Fatalf("drive %s hours not chronological at %d", dt.Meta.Serial, rec.Hour)
				}
				if n := rec.CorruptValues(); n != 0 {
					t.Fatalf("drive %s record %d carries %d corrupt values", dt.Meta.Serial, i, n)
				}
			}
			if dt.Meta.Failed == (dt.Meta.FailHour < 0) {
				t.Fatalf("drive %s failed=%v but FailHour=%d", dt.Meta.Serial, dt.Meta.Failed, dt.Meta.FailHour)
			}
		}
		if len(stats.Errors) > maxRowErrors {
			t.Fatalf("detailed errors %d exceed the cap", len(stats.Errors))
		}
		for _, re := range stats.Errors {
			if re.Reason == "" {
				t.Fatal("row error without a reason")
			}
		}
	})
}

// FuzzTraceReader holds the native reader to encoding/csv, the decoder
// it must agree with on every input. Row by row it must give the same
// fields, the same record line and the same error text, across the
// hand-off from the block decoder to encoding/csv. Drive by drive it
// must give the same traces, or the same error, as refReadAll, and Next
// must go on after an error exactly as a reader that hands the whole
// stream to encoding/csv does. Every input is decoded at each of
// fuzzBlockSizes.
func FuzzTraceReader(f *testing.F) {
	for _, s := range traceSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		want, wantErr := refReadAll(data)
		ref := nextAll(t, strings.NewReader(data), 1)
		for _, size := range fuzzBlockSizes {
			checkRows(t, data, size)
			got, err := nextAll(t, strings.NewReader(data), size).readAll()
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("block %d: err = %v, reference gives %v", size, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("block %d: %d drives, reference gives %d", size, len(got), len(want))
			}
			for i := range want {
				if got[i].Meta != want[i].Meta || !sameRecords(got[i].Records, want[i].Records) {
					t.Fatalf("block %d: drive %d (%s) differs from the reference", size, i, want[i].Meta.Serial)
				}
			}
			if seq := nextAll(t, strings.NewReader(data), size); !seq.equal(ref) {
				t.Fatalf("block %d: Next sequence %s, encoding/csv alone gives %s", size, seq, ref)
			}
		}
	})
}

// fuzzBlockSizes are the block sizes FuzzTraceReader decodes at: the
// production size, sizes at which rows straddle blocks and the hand-off
// to encoding/csv happens with blocks in flight (the header alone is
// ~250 bytes), and one that no line fits, so every stream goes to
// encoding/csv from its first line.
var fuzzBlockSizes = []int{blockSize, 512, 300, 16}

// traceSeeds is FuzzTraceReader's seed corpus.
func traceSeeds(tb testing.TB) []string {
	header := strings.Join(Header(), ",")
	row := func(serial string, hour int) string {
		return serial + ",W,false,-1," + strconv.Itoa(hour) + strings.Repeat(",1", 2*smart.NumAttrs) + "\n"
	}
	valid := traceCSV(tb, DriveMeta{Serial: "d0", Family: "W", FailHour: -1}, DriveMeta{Serial: "d1", Family: "Q", Failed: true, FailHour: 9})
	// many is a drive of many rows: several 512-byte blocks.
	many := header + "\n"
	for h := 0; h < 12; h++ {
		many += row("d0", h)
	}
	// crAt512 puts a CR as the 512th byte of the stream, the last byte
	// of the first 512-byte block, with its '\n' in the next block.
	crAt512 := header + "\n" + row("d0", 0)
	serial := strings.Repeat("c", 511-len(crAt512)-len(row("", 2))+1)
	crAt512 += strings.TrimSuffix(row(serial, 2), "\n") + "\r\n" + row("d1", 0)
	if crAt512[511] != '\r' {
		tb.Fatalf("crAt512 has %q at byte 511, want a CR", crAt512[511])
	}
	return []string{
		valid,
		header + "\n",
		// Writer output for a serial holding a comma and a quote.
		traceCSV(tb, DriveMeta{Serial: `a,"b`, Family: "W", FailHour: -1}, DriveMeta{Serial: "c", Family: "W", FailHour: -1}),
		strings.ReplaceAll(valid, "\n", "\r\n"), // CRLF line endings
		strings.ReplaceAll(valid, "\n", "\n\n"), // blank lines
		strings.TrimSuffix(valid, "\n"),         // no trailing newline
		strings.TrimSuffix(valid, "\n") + "\r",  // a CR as the stream's last byte
		// A line longer than a block, at the production size and at 512.
		header + "\n" + row(strings.Repeat("x", blockSize+10), 0),
		many + row(strings.Repeat("y", 600), 0) + row("d2", 0),
		// Wrong field counts, in the header and in a row.
		header + ",extra\n" + row("d0", 0),
		header + "\n" + row("d0", 0) + "d0,W,false,-1,1\n",
		// A quote first appearing mid-file, and in a later block.
		header + "\n" + row("d0", 0) + row("d0", 1) + row(`"d1"`, 0) + row("d1", 1) + row("d0", 2),
		many + row(`"d1"`, 0) + row("d1", 1),
		crAt512,
		// encoding/csv's own errors after the hand-off: a short row, a
		// bare quote, a quoted field left open at the end.
		header + "\n" + row("d0", 0) + row(`"d1"`, 0) + "d1,W\n" + row(`d"2`, 0) + row(`"d3`, 0),
		// A row error (a bad hour) and, in a block parsed ahead of it, a
		// wrong field count: the earlier row's error must win.
		header + "\n" + row("d0", 0) + strings.Replace(row("d0", 1), ",1,", ",x,", 1) + many[len(header)+1:] + "d0,W\n",
		// A drive whose rows are not contiguous.
		header + "\n" + row("d0", 0) + row("d1", 0) + row("d0", 1),
		// Rows the fast path declines but strconv reads, among canonical
		// rows: mid-drive (a leading +, an exponent, 16 digits, a + on
		// the hour) and on the first row of a drive (True).
		header + "\n" + row("d0", 0) + withField(row("d0", 1), 5, "+1") + withField(row("d0", 2), 6, "1.2345678e-05") +
			withField(row("d0", 3), 50, "1234567890123456") + withField(row("d0", 4), 4, "+5") +
			withField(withField(row("d1", 0), 2, "True"), 3, "7") + row("d1", 1),
		// The same after several 512-byte blocks of canonical rows.
		many + withField(row("d0", 12), 7, "1e5") + withField(row("d1", 0), 2, "TRUE") + row("d1", 1),
		// Declined rows strconv rejects: an hour past int64 mid-drive and
		// a value out of range on the first row of a drive.
		header + "\n" + row("d0", 0) + withField(row("d0", 1), 4, "9223372036854775808") +
			withField(row("d1", 0), 5, "1e999") + row("d2", 0),
	}
}

// withField replaces field i of the CSV line row.
func withField(row string, i int, field string) string {
	fields := strings.Split(strings.TrimSuffix(row, "\n"), ",")
	fields[i] = field
	return strings.Join(fields, ",") + "\n"
}

// checkRows is the row-level differential: readRow at block size size
// against encoding/csv's Read.
func checkRows(t *testing.T, data string, size int) {
	t.Helper()
	cr := csv.NewReader(strings.NewReader(data))
	cr.FieldsPerRecord = numColumns
	r := newReader(strings.NewReader(data), size)
	defer r.Close()
	for n := 0; ; n++ {
		fields, want := cr.Read()
		got := r.readRow()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("block %d row %d: err = %v, encoding/csv gives %v", size, n, got, want)
		}
		if errors.Is(want, io.EOF) {
			return
		}
		if want != nil {
			continue
		}
		if line, _ := cr.FieldPos(0); r.cur.line != line {
			t.Fatalf("block %d row %d: line %d, encoding/csv gives %d", size, n, r.cur.line, line)
		}
		for i, w := range fields {
			if g := r.field(i); g != w {
				t.Fatalf("block %d row %d field %d: %q, encoding/csv gives %q", size, n, i, g, w)
			}
		}
	}
}

// nextResult is what one Next call returned.
type nextResult struct {
	dt  DriveTrace
	err error
}

// nextSeq is every Next result up to io.EOF, or the header error.
type nextSeq []nextResult

// nextAll opens src at block size size and calls Next until io.EOF,
// going on past errors. It keeps a copy of each drive's records, which
// Next only lends until its next call.
func nextAll(t *testing.T, src io.Reader, size int) nextSeq {
	t.Helper()
	r, err := openReader(src, size)
	if err != nil {
		return nextSeq{{err: err}}
	}
	defer r.Close()
	var seq nextSeq
	for {
		dt, err := r.Next()
		if errors.Is(err, io.EOF) {
			return seq
		}
		dt.Records = slices.Clone(dt.Records)
		seq = append(seq, nextResult{dt, err})
	}
}

// readAll is the sequence as ReadAll reports it: the drives before the
// first error, or that error.
func (s nextSeq) readAll() ([]DriveTrace, error) {
	var out []DriveTrace
	for _, res := range s {
		if res.err != nil {
			return nil, res.err
		}
		out = append(out, res.dt)
	}
	return out, nil
}

// equal compares two sequences drive by drive and error by error.
func (s nextSeq) equal(o nextSeq) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		a, b := s[i], o[i]
		if (a.err == nil) != (b.err == nil) || (a.err != nil && a.err.Error() != b.err.Error()) ||
			a.dt.Meta != b.dt.Meta || !sameRecords(a.dt.Records, b.dt.Records) {
			return false
		}
	}
	return true
}

// strings renders each result as "serial×records error".
func (s nextSeq) strings() []string {
	out := make([]string, len(s))
	for i, res := range s {
		out[i] = fmt.Sprintf("%s×%d %v", res.dt.Meta.Serial, len(res.dt.Records), res.err)
	}
	return out
}

func (s nextSeq) String() string { return "[" + strings.Join(s.strings(), "] [") + "]" }

// traceCSV renders two-record drives through Writer.
func traceCSV(tb testing.TB, metas ...DriveMeta) string {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, m := range metas {
		recs := make([]smart.Record, 2)
		for i := range recs {
			recs[i].Hour = i
			recs[i].Normalized[i] = 99.5
			recs[i].Raw[i] = 1e6
		}
		if err := w.WriteDrive(m, recs); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// refReadAll is the reference for NewReader and ReadAll: encoding/csv
// rows grouped into drives, each row parsed by ParseRow, with the
// contiguity and chronology rules checked in row order.
func refReadAll(data string) ([]DriveTrace, error) {
	cr := csv.NewReader(strings.NewReader(data))
	cr.FieldsPerRecord = numColumns
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	for i, want := range Header() {
		if header[i] != want {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], want)
		}
	}
	var out []DriveTrace
	seen := make(map[string]bool)
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read row: %w", err)
		}
		line, _ := cr.FieldPos(0)
		if n := len(out); n > 0 && row[0] == out[n-1].Meta.Serial {
			_, rec, err := ParseRow(row, line)
			if err != nil {
				return nil, err
			}
			recs := out[n-1].Records
			if rec.Hour <= recs[len(recs)-1].Hour {
				return nil, RowError{Line: line, Serial: row[0],
					Reason: fmt.Sprintf("rows not chronological at hour %d", rec.Hour)}
			}
			out[n-1].Records = append(recs, rec)
			continue
		}
		if seen[row[0]] {
			return nil, RowError{Line: line, Serial: row[0],
				Reason: "rows not contiguous: the drive's earlier rows end before this line"}
		}
		seen[row[0]] = true
		meta, rec, err := ParseRow(row, line)
		if err != nil {
			return nil, err
		}
		out = append(out, DriveTrace{Meta: meta, Records: []smart.Record{rec}})
	}
}

// sameRecords compares records bit for bit, so NaN values match.
func sameRecords(a, b []smart.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Hour != b[i].Hour {
			return false
		}
		for k := range a[i].Normalized {
			if math.Float64bits(a[i].Normalized[k]) != math.Float64bits(b[i].Normalized[k]) ||
				math.Float64bits(a[i].Raw[k]) != math.Float64bits(b[i].Raw[k]) {
				return false
			}
		}
	}
	return true
}
