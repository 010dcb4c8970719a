package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

func sampleTrace(serial string, failed bool, hours ...int) DriveTrace {
	dt := DriveTrace{Meta: DriveMeta{Serial: serial, Family: "W", Failed: failed, FailHour: -1}}
	if failed {
		dt.Meta.FailHour = hours[len(hours)-1] + 1
	}
	for _, h := range hours {
		var r smart.Record
		r.Hour = h
		for i := range r.Normalized {
			r.Normalized[i] = float64(100 - i)
			r.Raw[i] = float64(i) * 1.5
		}
		dt.Records = append(dt.Records, r)
	}
	return dt
}

func TestRoundTrip(t *testing.T) {
	drives := []DriveTrace{
		sampleTrace("W-000001", false, 0, 1, 2, 5),
		sampleTrace("W-000002", true, 10, 11, 12),
		sampleTrace("Q-000001", false, 3),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, d := range drives {
		if err := w.WriteDrive(d.Meta, d.Records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(drives) {
		t.Fatalf("read %d drives, want %d", len(got), len(drives))
	}
	for i, want := range drives {
		if got[i].Meta != want.Meta {
			t.Errorf("drive %d meta = %+v, want %+v", i, got[i].Meta, want.Meta)
		}
		if len(got[i].Records) != len(want.Records) {
			t.Fatalf("drive %d: %d records, want %d", i, len(got[i].Records), len(want.Records))
		}
		for j := range want.Records {
			if got[i].Records[j] != want.Records[j] {
				t.Errorf("drive %d record %d differs", i, j)
			}
		}
	}
}

func TestRoundTripSimulatedTrace(t *testing.T) {
	// Simulator output must survive the CSV round trip bit-exactly
	// enough for modeling (float formatting uses 8 significant digits).
	w := simulate.FamilyW()
	w.GoodCount, w.FailedCount = 2, 1
	fleet, err := simulate.New(simulate.Config{Seed: 5, Families: []simulate.FamilyParams{w}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	d := fleet.Drives()[2] // the failed drive
	recs := fleet.Trace(d.Index)
	meta := DriveMeta{Serial: d.Serial, Family: d.Family, Failed: d.Failed, FailHour: d.FailHour}
	if err := tw.WriteDrive(meta, recs); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != meta {
		t.Errorf("meta = %+v, want %+v", got.Meta, meta)
	}
	if len(got.Records) != len(recs) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(recs))
	}
	for j := range recs {
		for k := range recs[j].Normalized {
			rel := recs[j].Normalized[k] - got.Records[j].Normalized[k]
			if rel > 1e-5 || rel < -1e-5 {
				t.Fatalf("record %d attr %d: %v vs %v", j, k, recs[j].Normalized[k], got.Records[j].Normalized[k])
			}
		}
	}
}

func TestNextStreamsDriveByDrive(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a := sampleTrace("A", false, 0, 1)
	b := sampleTrace("B", false, 7)
	_ = w.WriteDrive(a.Meta, a.Records)
	_ = w.WriteDrive(b.Meta, b.Records)
	_ = w.Flush()

	r, _ := NewReader(&buf)
	first, err := r.Next()
	if err != nil || first.Meta.Serial != "A" || len(first.Records) != 2 {
		t.Fatalf("first = %+v, %v", first.Meta, err)
	}
	second, err := r.Next()
	if err != nil || second.Meta.Serial != "B" || len(second.Records) != 1 {
		t.Fatalf("second = %+v, %v", second.Meta, err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("nope,header\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Error("empty file accepted")
	}
}

func TestReaderRejectsBadRows(t *testing.T) {
	header := strings.Join(Header(), ",")
	pad := strings.Repeat(",1", 2*smart.NumAttrs)
	cases := []string{
		header + "\n" + "s,W,notabool,-1,0" + pad + "\n",
		header + "\n" + "s,W,false,x,0" + pad + "\n",
		header + "\n" + "s,W,false,-1,zz" + pad + "\n",
		header + "\n" + "s,W,false,-1,0" + strings.Repeat(",x", 2*smart.NumAttrs) + "\n",
	}
	for i, raw := range cases {
		r, err := NewReader(strings.NewReader(raw))
		if err != nil {
			t.Fatalf("case %d: header rejected: %v", i, err)
		}
		if _, err := r.Next(); err == nil {
			t.Errorf("case %d: bad row accepted", i)
		}
	}
}

func TestReaderRejectsNonChronological(t *testing.T) {
	header := strings.Join(Header(), ",")
	pad := strings.Repeat(",1", 2*smart.NumAttrs)
	raw := header + "\n" +
		"s,W,false,-1,5" + pad + "\n" +
		"s,W,false,-1,3" + pad + "\n"
	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("non-chronological rows accepted")
	}
}

func TestGoodDriveFailHourNormalized(t *testing.T) {
	// Good drives always serialize fail_hour = -1 regardless of input.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	meta := DriveMeta{Serial: "g", Family: "W", Failed: false, FailHour: 999}
	dt := sampleTrace("g", false, 0)
	if err := w.WriteDrive(meta, dt.Records); err != nil {
		t.Fatal(err)
	}
	_ = w.Flush()
	r, _ := NewReader(&buf)
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.FailHour != -1 {
		t.Errorf("good drive fail_hour = %d, want -1", got.Meta.FailHour)
	}
}

func TestReaderRejectsNonContiguousDrive(t *testing.T) {
	header := strings.Join(Header(), ",")
	pad := strings.Repeat(",1", 2*smart.NumAttrs)
	raw := header + "\n" +
		"A,W,false,-1,0" + pad + "\n" +
		"B,W,false,-1,0" + pad + "\n" +
		"A,W,false,-1,1" + pad + "\n"
	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadAll()
	var re RowError
	if !errors.As(err, &re) || re.Line != 4 || re.Serial != "A" {
		t.Fatalf("err = %v, want a RowError on line 4 naming drive A", err)
	}
}

func TestReaderFallbackKeepsLineNumbers(t *testing.T) {
	// A quoted serial on line 3 hands the rest of the stream to
	// encoding/csv; line numbers must keep counting from the file start,
	// in drives' errors and in encoding/csv's own errors alike.
	header := strings.Join(Header(), ",")
	pad := strings.Repeat(",1", 2*smart.NumAttrs)
	raw := header + "\n" +
		"A,W,false,-1,0" + pad + "\n" +
		"\"B\",W,false,-1,0" + pad + "\n" +
		"\n" +
		"B,W,false,-1,x" + pad + "\n"
	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if dt, err := r.Next(); err != nil || dt.Meta.Serial != "A" {
		t.Fatalf("first drive = %+v, %v", dt.Meta, err)
	}
	_, err = r.Next()
	var re RowError
	if !errors.As(err, &re) || re.Line != 5 || re.Serial != "B" {
		t.Fatalf("err = %v, want a RowError on line 5 naming drive B", err)
	}

	raw = header + "\nA,W,false,-1,0" + pad + "\n\"B\n"
	r, err = NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadAll()
	cr := csv.NewReader(strings.NewReader(raw))
	cr.FieldsPerRecord = len(Header())
	var want error
	for want == nil {
		_, want = cr.Read()
	}
	if err == nil || err.Error() != "trace: read row: "+want.Error() {
		t.Fatalf("err = %v, want encoding/csv's %v", err, want)
	}
}

// gendataCSV renders a simulated fleet of about good healthy and failed
// failing drives in the native layout, as cmd/gendata writes it.
func gendataCSV(tb testing.TB, good, failed int) []byte {
	tb.Helper()
	fleet, err := simulate.New(simulate.Config{
		Seed:        1,
		GoodScale:   float64(good) / (22790 + 2441),
		FailedScale: float64(failed) / (434 + 127),
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, d := range fleet.Drives() {
		meta := DriveMeta{Serial: d.Serial, Family: d.Family, Failed: d.Failed, FailHour: d.FailHour}
		if err := w.WriteDrive(meta, fleet.Trace(d.Index)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkTraceReader decodes a gendata-shaped trace file end to end.
func BenchmarkTraceReader(b *testing.B) {
	data := gendataCSV(b, 8, 4)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReadAllAllocsPerDrive(t *testing.T) {
	// Decoding allocates per drive (serial, family, the record slice's
	// growth, the contiguity set), never per row.
	const drives, rows = 4, 2000
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for d := 0; d < drives; d++ {
		hours := make([]int, rows)
		for i := range hours {
			hours[i] = i
		}
		dt := sampleTrace(fmt.Sprintf("D-%d", d), d%2 == 1, hours...)
		if err := w.WriteDrive(dt.Meta, dt.Records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			t.Fatal(err)
		}
	})
	// NewReader's Header call, the pipeline's blocks, row slices and
	// goroutines, and ReadAll's slice are the fixed part (~150
	// allocations); a drive costs its serial, its family and the dozen
	// growths of its record slice (~17), whatever its row count.
	const fixed, perDrive = 200, 24
	if allocs > fixed+perDrive*drives {
		t.Fatalf("ReadAll of %d drives × %d rows: %.0f allocs, want ≤ %d", drives, rows, allocs, fixed+perDrive*drives)
	}
}
