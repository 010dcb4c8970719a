package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"hddcart/internal/smart"
)

// Backblaze's public drive-stats dataset is the de-facto standard SMART
// corpus (daily snapshots, one row per drive per day with columns
// smart_<id>_normalized / smart_<id>_raw). This importer converts it into
// the library's trace format so models train on real data: rows are
// grouped by serial, ordered by date, and day indices become trace hours
// 24 apart (daily sampling instead of the paper's hourly — change-rate
// intervals should be scaled accordingly by the caller).
//
// Real dumps are not clean. Rows arrive with missing serials, duplicated
// (serial, date) snapshots, NaN/Inf/out-of-range attribute values and
// conflicting model strings; the importer never lets any of these corrupt
// a trace and never skips silently — every rejected row and discarded
// value is accounted for in ParseStats with a line-numbered RowError.

// backblazeStep is the trace-hour step between consecutive rows of one
// drive: Backblaze snapshots are daily.
const backblazeStep = 24

// ReadBackblazeStats parses a Backblaze drive-stats CSV stream. Rows of one
// drive need not be contiguous; the whole stream is materialized, grouped
// by serial and sorted chronologically. A drive is marked failed when any
// of its rows carries failure=1; its FailHour is one time step after its
// last recorded row, matching the paper's "samples before actual failure"
// convention.
//
// Malformed input degrades the import, never the output: rows without a
// serial or date, unparseable CSV records and duplicated (serial, date)
// snapshots are dropped; non-finite or out-of-domain attribute values are
// discarded (the value is treated as missing) and the row kept. The
// returned ParseStats accounts for every such decision with the input line
// it happened on. The error return is reserved for stream-level problems:
// unreadable input, a missing header, or a header without the required
// columns.
func ReadBackblazeStats(r io.Reader) ([]DriveTrace, ParseStats, error) {
	var stats ParseStats
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // Backblaze adds columns over the years
	cr.LazyQuotes = true    // stray quotes degrade a row, not the stream
	header, err := cr.Read()
	if err != nil {
		return nil, stats, fmt.Errorf("trace: backblaze header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[strings.TrimSpace(strings.ToLower(name))] = i
	}
	for _, required := range []string{"date", "serial_number", "model", "failure"} {
		if _, ok := col[required]; !ok {
			return nil, stats, fmt.Errorf("trace: backblaze CSV missing column %q", required)
		}
	}
	// Map catalogue attributes onto smart_<id>_normalized / _raw columns.
	type attrCols struct {
		idx       int // position in the Record arrays
		norm, raw int // CSV columns (-1 = absent)
	}
	var attrs []attrCols
	for i, a := range smart.Catalogue {
		ac := attrCols{idx: i, norm: -1, raw: -1}
		if c, ok := col[fmt.Sprintf("smart_%d_normalized", int(a.ID))]; ok {
			ac.norm = c
		}
		if c, ok := col[fmt.Sprintf("smart_%d_raw", int(a.ID))]; ok {
			ac.raw = c
		}
		if ac.norm != -1 || ac.raw != -1 {
			attrs = append(attrs, ac)
		}
	}
	if len(attrs) == 0 {
		return nil, stats, errors.New("trace: backblaze CSV has no catalogued smart_* columns")
	}

	type row struct {
		date   string
		line   int
		rec    smart.Record
		failed bool
	}
	byDrive := make(map[string]*struct {
		model string
		rows  []row
	})
	for {
		fields, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// encoding/csv keeps reading after per-record parse errors;
			// account the row and move on.
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				stats.Rows++
				stats.drop(pe.Line, "", fmt.Sprintf("unparseable CSV record: %v", pe.Err))
				continue
			}
			return nil, stats, fmt.Errorf("trace: backblaze row: %w", err)
		}
		stats.Rows++
		line, _ := cr.FieldPos(0)
		get := func(i int) string {
			if i < 0 || i >= len(fields) {
				return ""
			}
			return strings.TrimSpace(fields[i])
		}
		model := get(col["model"])
		serial := get(col["serial_number"])
		if serial == "" {
			stats.drop(line, "", "missing serial_number")
			continue
		}
		var rw row
		rw.line = line
		rw.date = get(col["date"])
		if rw.date == "" {
			stats.drop(line, serial, "missing date")
			continue
		}
		repaired := false
		switch fv := get(col["failure"]); fv {
		case "", "0":
		case "1":
			rw.failed = true
		default:
			repaired = true
			stats.repair(line, serial, fmt.Sprintf("unparseable failure flag %q, treated as healthy", fv))
		}
		for _, ac := range attrs {
			if s := get(ac.norm); s != "" {
				v, err := strconv.ParseFloat(s, 64)
				if err == nil && smart.ValidNormalized(v) {
					rw.rec.Normalized[ac.idx] = v
				} else if !repaired {
					repaired = true
					stats.repair(line, serial,
						fmt.Sprintf("discarded corrupt normalized value %q for smart_%d", s, int(smart.Catalogue[ac.idx].ID)))
				}
			}
			if s := get(ac.raw); s != "" {
				v, err := strconv.ParseFloat(s, 64)
				if err == nil && smart.ValidRaw(v) {
					rw.rec.Raw[ac.idx] = v
				} else if !repaired {
					repaired = true
					stats.repair(line, serial,
						fmt.Sprintf("discarded corrupt raw value %q for smart_%d", s, int(smart.Catalogue[ac.idx].ID)))
				}
			}
		}
		d := byDrive[serial]
		if d == nil {
			d = &struct {
				model string
				rows  []row
			}{model: model}
			byDrive[serial] = d
		} else if model != "" && d.model != "" && model != d.model && !repaired {
			stats.repair(line, serial,
				fmt.Sprintf("conflicting model %q (drive registered as %q)", model, d.model))
		}
		d.rows = append(d.rows, rw)
	}

	serials := make([]string, 0, len(byDrive))
	for s := range byDrive {
		serials = append(serials, s)
	}
	sort.Strings(serials)

	out := make([]DriveTrace, 0, len(byDrive))
	for _, serial := range serials {
		d := byDrive[serial]
		sort.SliceStable(d.rows, func(i, j int) bool { return d.rows[i].date < d.rows[j].date })
		dt := DriveTrace{Meta: DriveMeta{
			Serial: serial, Family: d.model, FailHour: -1,
		}}
		for i := range d.rows {
			if i > 0 && d.rows[i].date == d.rows[i-1].date {
				// Duplicate snapshot: the stable sort kept file order, so
				// the first row wins and later ones are dropped.
				stats.drop(d.rows[i].line, serial,
					fmt.Sprintf("duplicate snapshot for date %s", d.rows[i].date))
				if d.rows[i].failed {
					dt.Meta.Failed = true // never lose a failure marker
				}
				continue
			}
			rec := d.rows[i].rec
			rec.Hour = len(dt.Records) * backblazeStep
			dt.Records = append(dt.Records, rec)
			if d.rows[i].failed {
				dt.Meta.Failed = true
			}
		}
		if len(dt.Records) == 0 {
			continue
		}
		if dt.Meta.Failed {
			dt.Meta.FailHour = len(dt.Records) * backblazeStep
		}
		out = append(out, dt)
	}
	stats.Drives = len(out)
	return out, stats, nil
}
