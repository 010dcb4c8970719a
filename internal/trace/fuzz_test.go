package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
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

func FuzzSmartctlParse(f *testing.F) {
	f.Add([]byte(smartctlSample), 42)
	f.Add([]byte("ID# ATTRIBUTE_NAME FLAG VALUE WORST THRESH TYPE UPDATED WHEN_FAILED RAW_VALUE\n"+
		"  5 Reallocated_Sector_Ct 0x0033 100 100 010 Pre-fail Always - 24\n"), 0)
	// Truncated row, NaN value, huge raw.
	f.Add([]byte("ID# ...\n"+
		"  5 Reallocated_Sector_Ct 0x0033 100\n"+
		"  1 Raw_Read_Error_Rate 0x000f NaN 099 006 Pre-fail Always - 170\n"+
		"194 Temperature_Celsius 0x0022 062 045 000 Old_age Always - 1e30\n"), 7)
	f.Fuzz(func(t *testing.T, data []byte, hour int) {
		rec, stats, err := ParseSmartctlStats(bytes.NewReader(data), hour)
		if err != nil {
			return
		}
		if rec.Hour != hour {
			t.Fatalf("hour = %d, want %d", rec.Hour, hour)
		}
		if n := rec.CorruptValues(); n != 0 {
			t.Fatalf("accepted record carries %d corrupt values", n)
		}
		for _, re := range stats.Errors {
			if re.Line <= 0 {
				t.Fatalf("row error without a line number: %v", re)
			}
		}
	})
}

// FuzzTraceReader holds the native reader to encoding/csv, the decoder
// it must agree with on every input. Row by row it must give the same
// fields, the same record line and the same error text, across the
// hand-off from the in-place splitter to encoding/csv. Drive by drive it
// must give the same traces, or the same error, as refReadAll.
func FuzzTraceReader(f *testing.F) {
	header := strings.Join(Header(), ",")
	row := func(serial string, hour int) string {
		return serial + ",W,false,-1," + strconv.Itoa(hour) + strings.Repeat(",1", 2*smart.NumAttrs) + "\n"
	}
	valid := traceCSV(f, DriveMeta{Serial: "d0", Family: "W", FailHour: -1}, DriveMeta{Serial: "d1", Family: "Q", Failed: true, FailHour: 9})
	seeds := []string{
		valid,
		header + "\n",
		// Writer output for a serial holding a comma and a quote.
		traceCSV(f, DriveMeta{Serial: `a,"b`, Family: "W", FailHour: -1}, DriveMeta{Serial: "c", Family: "W", FailHour: -1}),
		strings.ReplaceAll(valid, "\n", "\r\n"), // CRLF line endings
		strings.ReplaceAll(valid, "\n", "\n\n"), // blank lines
		strings.TrimSuffix(valid, "\n"),         // no trailing newline
		// A line longer than the read buffer.
		header + "\n" + row(strings.Repeat("x", readBufSize+10), 0),
		// Wrong field counts, in the header and in a row.
		header + ",extra\n" + row("d0", 0),
		header + "\n" + row("d0", 0) + "d0,W,false,-1,1\n",
		// A quote first appearing mid-file.
		header + "\n" + row("d0", 0) + row("d0", 1) + row(`"d1"`, 0) + row("d1", 1) + row("d0", 2),
		// encoding/csv's own errors after the hand-off: a short row, a
		// bare quote, a quoted field left open at the end.
		header + "\n" + row("d0", 0) + row(`"d1"`, 0) + "d1,W\n" + row(`d"2`, 0) + row(`"d3`, 0),
		// A drive whose rows are not contiguous.
		header + "\n" + row("d0", 0) + row("d1", 0) + row("d0", 1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		cr := csv.NewReader(strings.NewReader(data))
		cr.FieldsPerRecord = len(Header())
		r := newReader(strings.NewReader(data))
		for n := 0; ; n++ {
			fields, want := cr.Read()
			got := r.readRow()
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("row %d: err = %v, encoding/csv gives %v", n, got, want)
			}
			if errors.Is(want, io.EOF) {
				break
			}
			if want != nil {
				continue
			}
			if line, _ := cr.FieldPos(0); r.rowLine != line {
				t.Fatalf("row %d: line %d, encoding/csv gives %d", n, r.rowLine, line)
			}
			for i, w := range fields {
				if g := r.field(i); g != w {
					t.Fatalf("row %d field %d: %q, encoding/csv gives %q", n, i, g, w)
				}
			}
		}

		want, wantErr := refReadAll(data)
		var got []DriveTrace
		tr, err := NewReader(strings.NewReader(data))
		if err == nil {
			got, err = tr.ReadAll()
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("err = %v, reference gives %v", err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d drives, reference gives %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Meta != want[i].Meta || !sameRecords(got[i].Records, want[i].Records) {
				t.Fatalf("drive %d (%s) differs from the reference", i, want[i].Meta.Serial)
			}
		}
	})
}

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
	cr.FieldsPerRecord = len(Header())
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
