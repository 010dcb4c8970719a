package trace

import (
	"bytes"
	"strconv"

	"hddcart/internal/decimal"
	"hddcart/internal/smart"
)

// The block decoder's fast path parses a line in the canonical form
// Writer emits in one walk over its bytes, with no field slicing and no
// strconv call. It accepts only what it can decode to exactly the values
// parseRow gives, and declines every other line, which then goes through
// splitRow and parseRow unchanged. Whether a line is declined is never
// visible: strconv and encoding/csv stay the only authority for values
// and error text.
//
// The canonical form is:
//
//   - serial and family: the bytes before the first and second comma;
//   - failed: true or false;
//   - fail_hour and hour: -?[0-9]{1,intDigits};
//   - each value: -?[0-9]+(\.[0-9]+)? with at most decimal.MaxDigits
//     (19) digits from the first nonzero one and, unless it is zero, at
//     most decimal.MaxFrac (40) after the point.
//
// A value is read by package decimal's exact paths: Clinger's when its
// digits m are below 2^53 and 10^k is exact (k ≤ 22), so the one IEEE
// division float64(m)/10^k rounds the true quotient correctly, and
// Eisel–Lemire's otherwise, which declines a value on or next to a
// double or a halfway point between two. Either way the bits are the ones
// strconv.ParseFloat returns, whose result is correctly rounded too. The
// digit loop and Clinger's path inline here; only a value they decline
// pays for a call.

// intDigits bounds an hour's digits, so it fits an int on every
// platform: 18 where int has 64 bits, 9 where it has 32.
const intDigits = strconv.IntSize * 9 / 32

// scanRow parses raw into rw's serial, meta and record when raw is a
// canonical row of the native layout, and reports whether it was. On
// false it may have written part of rw.meta and rw.rec.
//
//hddlint:noalloc
func scanRow(rw *row, raw []byte) bool {
	serialEnd := bytes.IndexByte(raw, ',')
	if serialEnd < 0 {
		return false
	}
	i := bytes.IndexByte(raw[serialEnd+1:], ',')
	if i < 0 {
		return false
	}
	i += serialEnd + 2
	switch {
	case len(raw)-i > 5 && string(raw[i:i+5]) == "true,":
		rw.meta.Failed = true
		i += 5
	case len(raw)-i > 6 && string(raw[i:i+6]) == "false,":
		rw.meta.Failed = false
		i += 6
	default:
		return false
	}
	var ok bool
	if rw.meta.FailHour, i, ok = scanInt(raw, i); !ok || i == len(raw) || raw[i] != ',' {
		return false
	}
	if rw.rec.Hour, i, ok = scanInt(raw, i+1); !ok {
		return false
	}
	rec := &rw.rec
	for j := 0; j < 2*smart.NumAttrs; j++ {
		if i == len(raw) || raw[i] != ',' {
			return false
		}
		i++
		neg := i < len(raw) && raw[i] == '-'
		if neg {
			i++
		}
		start := i
		var m uint64
		if i, m, ok = decimal.Digits(raw, i, 0); !ok || i == start {
			return false
		}
		k := 0
		if i < len(raw) && raw[i] == '.' {
			frac := i + 1
			if i, m, ok = decimal.Digits(raw, frac, m); !ok || i == frac {
				return false
			}
			k = i - frac
		}
		v, ok := decimal.Exact(m, k)
		if !ok {
			if v, ok = decimal.EiselLemire(m, k); !ok {
				return false
			}
		}
		if neg {
			v = -v
		}
		if j < smart.NumAttrs {
			rec.Normalized[j] = v
		} else {
			rec.Raw[j-smart.NumAttrs] = v
		}
	}
	if i != len(raw) {
		return false
	}
	rw.serial = raw[:serialEnd]
	return true
}

// scanInt parses the canonical integer -?[0-9]{1,intDigits} at s[i:] and
// returns it with the index after it; false when s[i:] does not start
// with one.
func scanInt(s []byte, i int) (v, next int, ok bool) {
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		v = v*10 + int(s[i]-'0')
	}
	if i == start || i-start > intDigits {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}
