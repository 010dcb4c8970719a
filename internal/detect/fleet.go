package detect

import (
	"errors"
	"fmt"

	"hddcart/internal/dataset"
)

// FleetCodes is the reusable backing QuantizeFleet fills: one contiguous
// code allocation spanning every drive's rows, plus the per-row headers
// and per-drive BinnedSeries views into it. Quantizing series one by one
// (dataset.BinnedMatrix.Quantize) pays one allocation per drive — at
// fleet scale that is millions of small allocations per sweep. Reusing
// one FleetCodes across sweeps amortizes the backing to zero
// steady-state allocations (asserted by test) while producing codes
// identical to the per-series Quantize row for row.
//
// The returned series alias the FleetCodes buffers: the next
// QuantizeFleet call into the same FleetCodes invalidates them.
type FleetCodes struct {
	flat   []uint8
	rows   [][]uint8
	series []BinnedSeries
}

// QuantizeFleet maps every drive's series onto bm's code space in one
// pass over one contiguous backing. Hours and Dropped carry over
// unchanged; row codes equal dataset.BinnedMatrix.Quantize's exactly. fc
// must be non-nil; its buffers grow to the fleet's high-water size once
// and are reused afterwards.
//
//hddlint:noalloc
func QuantizeFleet(bm *dataset.BinnedMatrix, series []Series, fc *FleetCodes) ([]BinnedSeries, error) {
	if bm == nil {
		//hddlint:ignore hotalloc error path only
		return nil, errors.New("detect: QuantizeFleet needs a binned matrix")
	}
	if fc == nil {
		//hddlint:ignore hotalloc error path only
		return nil, errors.New("detect: QuantizeFleet needs a FleetCodes to fill")
	}
	nf := bm.NumFeatures
	total := 0
	for di := range series {
		for ri, row := range series[di].X {
			if len(row) < nf {
				// The call must stay on the ignore's line: fmt.Errorf boxes its
				// arguments where they appear, and escapecheck reports each box
				// at the argument line.
				//hddlint:ignore hotalloc error path only
				return nil, fmt.Errorf("detect: QuantizeFleet drive %d row %d has %d of %d features", di, ri, len(row), nf)
			}
		}
		total += len(series[di].X)
	}
	if cap(fc.flat) < total*nf {
		//hddlint:ignore hotalloc cold path: the backing grows to the fleet's high-water size once, then every sweep reuses it
		fc.flat = make([]uint8, total*nf)
	}
	if cap(fc.rows) < total {
		//hddlint:ignore hotalloc cold path: grows once
		fc.rows = make([][]uint8, total)
	}
	if cap(fc.series) < len(series) {
		//hddlint:ignore hotalloc cold path: grows once
		fc.series = make([]BinnedSeries, len(series))
	}
	flat := fc.flat[:total*nf]
	rows := fc.rows[:total]
	out := fc.series[:len(series)]
	r := 0
	for di := range series {
		s := &series[di]
		lo := r
		for _, x := range s.X {
			dst := flat[r*nf : (r+1)*nf : (r+1)*nf]
			bm.QuantizeRow(x, dst)
			rows[r] = dst
			r++
		}
		out[di] = BinnedSeries{Codes: rows[lo:r:r], Hours: s.Hours, Dropped: s.Dropped}
	}
	return out, nil
}
