package trace

import (
	"errors"
	"strings"
	"testing"

	"hddcart/internal/smart"
)

const backblazeSample = `date,serial_number,model,capacity_bytes,failure,smart_1_normalized,smart_1_raw,smart_5_normalized,smart_5_raw,smart_9_normalized,smart_9_raw,smart_194_normalized,smart_194_raw,smart_255_normalized,smart_255_raw
2024-01-01,ZA001,ST4000DM000,4000787030016,0,118,170589480,100,0,92,7000,62,38,1,1
2024-01-02,ZA001,ST4000DM000,4000787030016,0,117,171589480,100,0,92,7024,61,39,1,1
2024-01-03,ZA001,ST4000DM000,4000787030016,1,80,991589480,95,24,92,7048,55,45,1,1
2024-01-01,ZB002,WDC-WD60,6000000000000,0,200,0,100,0,80,17000,65,35,1,1
2024-01-02,ZB002,WDC-WD60,6000000000000,0,200,0,100,0,80,17024,64,36,1,1
`

func TestReadBackblaze(t *testing.T) {
	drives, err := ReadBackblaze(strings.NewReader(backblazeSample), BackblazeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(drives) != 2 {
		t.Fatalf("drives = %d, want 2", len(drives))
	}
	// Sorted by serial: ZA001 first.
	za := drives[0]
	if za.Meta.Serial != "ZA001" || za.Meta.Family != "ST4000DM000" {
		t.Fatalf("meta = %+v", za.Meta)
	}
	if !za.Meta.Failed || za.Meta.FailHour != 3*24 {
		t.Errorf("ZA001 failed/failHour = %v/%d, want true/72", za.Meta.Failed, za.Meta.FailHour)
	}
	if len(za.Records) != 3 {
		t.Fatalf("ZA001 records = %d", len(za.Records))
	}
	if za.Records[1].Hour != 24 {
		t.Errorf("second row hour = %d, want 24", za.Records[1].Hour)
	}
	if got := za.Records[0].NormalizedOf(smart.RawReadErrorRate); got != 118 {
		t.Errorf("smart_1_normalized = %v, want 118", got)
	}
	if got := za.Records[2].RawOf(smart.ReallocatedSectors); got != 24 {
		t.Errorf("smart_5_raw (day 3) = %v, want 24", got)
	}
	if got := za.Records[0].RawOf(smart.TemperatureCelsius); got != 38 {
		t.Errorf("smart_194_raw = %v, want 38", got)
	}

	zb := drives[1]
	if zb.Meta.Failed || zb.Meta.FailHour != -1 {
		t.Errorf("ZB002 should be good: %+v", zb.Meta)
	}
}

func TestReadBackblazeModelFilter(t *testing.T) {
	drives, err := ReadBackblaze(strings.NewReader(backblazeSample),
		BackblazeOptions{ModelFilter: "ST4000DM000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(drives) != 1 || drives[0].Meta.Serial != "ZA001" {
		t.Errorf("filter kept %d drives", len(drives))
	}
}

func TestReadBackblazeUnsortedRows(t *testing.T) {
	// Rows arrive date-shuffled; the importer must sort them.
	shuffled := `date,serial_number,model,failure,smart_1_normalized,smart_1_raw
2024-01-03,X,M,0,90,3
2024-01-01,X,M,0,100,1
2024-01-02,X,M,0,95,2
`
	drives, err := ReadBackblaze(strings.NewReader(shuffled), BackblazeOptions{HoursPerRow: 24})
	if err != nil {
		t.Fatal(err)
	}
	recs := drives[0].Records
	if recs[0].RawOf(smart.RawReadErrorRate) != 1 || recs[2].RawOf(smart.RawReadErrorRate) != 3 {
		t.Errorf("rows not chronologically sorted: %v %v",
			recs[0].RawOf(smart.RawReadErrorRate), recs[2].RawOf(smart.RawReadErrorRate))
	}
}

func TestReadBackblazeErrors(t *testing.T) {
	if _, err := ReadBackblaze(strings.NewReader(""), BackblazeOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadBackblaze(strings.NewReader("a,b,c\n1,2,3\n"), BackblazeOptions{}); err == nil {
		t.Error("missing required columns accepted")
	}
	noSmart := "date,serial_number,model,failure\n2024-01-01,X,M,0\n"
	if _, err := ReadBackblaze(strings.NewReader(noSmart), BackblazeOptions{}); err == nil {
		t.Error("CSV without smart_* columns accepted")
	}
}

func TestReadBackblazeStatsAccounting(t *testing.T) {
	// Line 2: clean. Line 3: NaN normalized (repaired). Line 4: duplicate
	// snapshot of line 2's date carrying the failure marker (dropped, but
	// the marker survives). Line 5: missing serial (dropped). Line 6: out
	// of range raw (repaired).
	in := `date,serial_number,model,failure,smart_5_normalized,smart_5_raw
2024-01-01,X,M,0,100,1
2024-01-02,X,M,0,NaN,2
2024-01-01,X,M,1,90,9
2024-01-03,,M,0,100,3
2024-01-04,X,M,0,100,1e18
`
	drives, stats, err := ReadBackblazeStats(strings.NewReader(in), BackblazeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(drives) != 1 {
		t.Fatalf("drives = %d, want 1", len(drives))
	}
	x := drives[0]
	if !x.Meta.Failed {
		t.Error("failure marker on a duplicate row was lost")
	}
	if len(x.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(x.Records))
	}
	// The NaN normalized and out-of-range raw values were discarded.
	if got := x.Records[1].NormalizedOf(smart.ReallocatedSectors); got != 0 {
		t.Errorf("NaN value imported as %v", got)
	}
	if got := x.Records[2].RawOf(smart.ReallocatedSectors); got != 0 {
		t.Errorf("out-of-range raw imported as %v", got)
	}
	if stats.Rows != 5 || stats.Dropped != 2 || stats.Repaired != 2 {
		t.Errorf("stats = %+v, want rows=5 dropped=2 repaired=2", stats)
	}
	if len(stats.Errors) != 4 {
		t.Fatalf("detailed errors = %d, want 4", len(stats.Errors))
	}
	// Every accounting entry is pinned to its input line.
	wantLines := map[int]bool{3: true, 4: true, 5: true, 6: true}
	for _, re := range stats.Errors {
		if !wantLines[re.Line] {
			t.Errorf("unexpected row error line %d: %v", re.Line, re)
		}
		delete(wantLines, re.Line)
	}
	if len(wantLines) != 0 {
		t.Errorf("unaccounted lines: %v (errors: %v)", wantLines, stats.Errors)
	}
}

func TestReadBackblazeConflictingModel(t *testing.T) {
	in := `date,serial_number,model,failure,smart_5_raw
2024-01-01,X,M1,0,1
2024-01-02,X,M2,0,2
`
	drives, stats, err := ReadBackblazeStats(strings.NewReader(in), BackblazeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drives[0].Meta.Family != "M1" {
		t.Errorf("family = %q, want first-seen M1", drives[0].Meta.Family)
	}
	if stats.Repaired != 1 || len(stats.Errors) != 1 {
		t.Errorf("conflicting model unaccounted: %+v", stats)
	}
	if !strings.Contains(stats.Errors[0].Reason, "conflicting model") {
		t.Errorf("reason = %q", stats.Errors[0].Reason)
	}
}

func TestReadBackblazeErrorCap(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("date,serial_number,model,failure,smart_5_raw\n")
	for i := 0; i < maxRowErrors+20; i++ {
		sb.WriteString("2024-01-01,,M,0,1\n") // missing serial, dropped
	}
	_, stats, err := ReadBackblazeStats(strings.NewReader(sb.String()), BackblazeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != maxRowErrors+20 {
		t.Errorf("dropped = %d, want %d", stats.Dropped, maxRowErrors+20)
	}
	if len(stats.Errors) != maxRowErrors || stats.Truncated != 20 {
		t.Errorf("errors = %d truncated = %d", len(stats.Errors), stats.Truncated)
	}
}

func TestTraceReaderLineNumberedErrors(t *testing.T) {
	var buf strings.Builder
	w := NewWriter(&buf)
	mkRec := func(hour int) smart.Record {
		var r smart.Record
		r.Hour = hour
		return r
	}
	err := w.WriteDrive(DriveMeta{Serial: "d0", Family: "W", FailHour: -1},
		[]smart.Record{mkRec(3), mkRec(3)}) // duplicate hour
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	var re RowError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want RowError", err, err)
	}
	// Header is line 1, first record line 2, the offender line 3.
	if re.Line != 3 || re.Serial != "d0" {
		t.Errorf("RowError = %+v, want line 3 drive d0", re)
	}
}
