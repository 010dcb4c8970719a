package smart

import "slices"

// Column names one value of a Record: Catalogue position c is the
// normalized value Normalized[c], NumAttrs+c the raw value Raw[c].
type Column uint8

// Of returns the column's value in r.
func (c Column) Of(r *Record) float64 {
	if int(c) < NumAttrs {
		return r.Normalized[c]
	}
	return r.Raw[int(c)-NumAttrs]
}

// Valid reports whether v lies in the column's value domain
// (ValidNormalized or ValidRaw).
func (c Column) Valid(v float64) bool {
	if int(c) < NumAttrs {
		return ValidNormalized(v)
	}
	return ValidRaw(v)
}

// Plan is a FeatureSet compiled for extraction: the Record columns the
// set reads, each once, and per feature the column it reads and its
// change-rate interval. Offline extraction (dataset.Builder and
// detect.ExtractSeries) and the online Monitor both compute features
// through Plan.Extract over Rows holding only those columns, so the
// paths share one piece of arithmetic and the Monitor stores nothing
// else per record.
type Plan struct {
	// Cols lists the distinct columns the set reads, in first-use order.
	Cols        []Column
	feats       []planFeature
	maxInterval int
	rates       bool // some feature is a change rate
}

// planFeature is one compiled feature.
type planFeature struct {
	kind     Kind
	col      int // index into Plan.Cols; -1 = uncatalogued attribute, which reads 0
	interval int // change-rate interval in hours
}

// Compile builds the set's extraction plan.
func (fs FeatureSet) Compile() *Plan {
	p := &Plan{feats: make([]planFeature, len(fs)), maxInterval: fs.MaxInterval()}
	for k, f := range fs {
		pf := planFeature{kind: f.Kind, col: -1, interval: f.IntervalHours}
		p.rates = p.rates || f.Kind == ChangeRate
		if i, ok := Index(f.Attr); ok {
			c := Column(i)
			if f.Kind == Raw || (f.Kind == ChangeRate && f.RateOfRaw) {
				c += Column(NumAttrs)
			}
			pf.col = p.colOf(c)
		}
		p.feats[k] = pf
	}
	return p
}

// colOf returns c's index in p.Cols, appending it on first use.
func (p *Plan) colOf(c Column) int {
	for i, have := range p.Cols {
		if have == c {
			return i
		}
	}
	p.Cols = append(p.Cols, c)
	return len(p.Cols) - 1
}

// Gather copies r's plan columns into dst (len ≥ len(p.Cols)).
func (p *Plan) Gather(dst []float64, r *Record) {
	for k, c := range p.Cols {
		dst[k] = c.Of(r)
	}
}

// Repair gathers r's plan columns into dst as Gather does, but carries
// prev's value forward into every column whose value in r is corrupt —
// last-observation-carried-forward, the standard repair for point
// corruption in slowly-varying SMART streams — and returns how many it
// replaced. prev is a row of the same plan; it must be clean (a drive's
// last accepted row) for dst to be clean.
func (p *Plan) Repair(dst, prev []float64, r *Record) int {
	repaired := 0
	for k, c := range p.Cols {
		v := c.Of(r)
		if !c.Valid(v) {
			v = prev[k]
			repaired++
		}
		dst[k] = v
	}
	return repaired
}

// Rows is a chronological run of one drive's records reduced to a
// plan's columns, held in a ring: row i (0 = oldest) is physical row
// (Head+i) mod len(Hours), whose values are Vals[phys·len(Cols):][:len(Cols)].
// A trace gathered by RowsOf is a ring that never wraps.
type Rows struct {
	Hours []int
	Vals  []float64
	Head  int
	Len   int
}

// Phys returns the physical row of chronological row i (0 ≤ i < Len).
func (r *Rows) Phys(i int) int {
	i += r.Head
	if i >= len(r.Hours) {
		i -= len(r.Hours)
	}
	return i
}

// RowsOf gathers into rows the rows of trace that extracting any
// record of trace[from:to] reads: the records from the deepest
// change-rate lookback of the earliest-hour record in the range, up to
// to. It reuses the capacity of rows' slices and returns the trace index
// of row 0; record i is row i-lo.
func (p *Plan) RowsOf(trace []Record, from, to int, rows *Rows) (lo int) {
	lo = from
	if p.rates {
		// Every lookback from [from, to) reaches a target at or after
		// floor = min hour − maxInterval, so it stops at or after the
		// newest record before from at or below floor (or runs to 0).
		minHour := trace[from].Hour
		for i := from + 1; i < to; i++ {
			minHour = min(minHour, trace[i].Hour)
		}
		floor := minHour - p.maxInterval
		lo = 0
		for j := from - 1; j >= 0; j-- {
			if trace[j].Hour <= floor {
				lo = j
				break
			}
		}
	}
	n, nc := to-lo, len(p.Cols)
	rows.Hours = slices.Grow(rows.Hours[:0], n)[:n]
	rows.Vals = slices.Grow(rows.Vals[:0], n*nc)[:n*nc]
	rows.Head, rows.Len = 0, n
	for i := range n {
		rows.Hours[i] = trace[lo+i].Hour
		p.Gather(rows.Vals[i*nc:], &trace[lo+i])
	}
	return lo
}

// Extract computes the feature vector of chronological row i of rows
// into dst: level features copy the row's value; a change rate looks
// back to the newest earlier row at or before Hour−IntervalHours
// (traces may miss samples) and scales the difference to a per-interval
// rate by the hours actually elapsed. It returns false when dst is
// short or a lookback finds no row, as for a record earlier in its
// trace than the set's deepest change-rate interval.
//
//hddlint:noalloc
func (p *Plan) Extract(dst []float64, rows *Rows, i int) bool {
	if len(dst) < len(p.feats) {
		return false
	}
	nc := len(p.Cols)
	ci := rows.Phys(i)
	cur := rows.Vals[ci*nc : ci*nc+nc]
	curHour := rows.Hours[ci]
	// Change rates of one interval share a lookback; the last one found
	// is kept (pj, for interval iv) so a run of them scans once.
	iv, pj := 0, -1
	for k, f := range p.feats {
		switch f.kind {
		case Normalized, Raw:
			dst[k] = colValue(cur, f.col)
		case ChangeRate:
			if pj < 0 || f.interval != iv {
				iv, pj = f.interval, -1
				target := curHour - iv
				for j := i - 1; j >= 0; j-- {
					if q := rows.Phys(j); rows.Hours[q] <= target {
						pj = q
						break
					}
				}
			}
			if pj < 0 {
				return false
			}
			elapsed := float64(curHour - rows.Hours[pj])
			if elapsed <= 0 {
				return false
			}
			delta := colValue(cur, f.col) - colValue(rows.Vals[pj*nc:pj*nc+nc], f.col)
			// Scale to a per-interval rate so gaps from missing
			// samples do not inflate the feature.
			dst[k] = delta * float64(f.interval) / elapsed
		}
	}
	return true
}

// colValue reads plan column c of a row; an uncatalogued attribute
// (c < 0) reads 0, as Record.NormalizedOf and RawOf return.
func colValue(row []float64, c int) float64 {
	if c < 0 {
		return 0
	}
	return row[c]
}
