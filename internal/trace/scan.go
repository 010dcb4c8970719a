package trace

import (
	"bytes"
	"strconv"

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
//   - each value: -?[0-9]+(\.[0-9]+)? with at most 15 digits
//     from the first nonzero one and at most len(pow10)-1 after the
//     point.
//
// A value is exact by Clinger's fast path: its digits m are below
// 10^15 < 2^53 and 10^k is exact for k ≤ 22, so float64(m) and 10^k are
// both exact doubles and the one IEEE division float64(m)/10^k rounds the
// true quotient correctly — the value strconv.ParseFloat returns, whose
// result is correctly rounded too.

// sigLimit bounds a value's digits m: an m at or above it has 15
// significant digits already, and a 16th could take m past 2^53.
const sigLimit = 1e14

// intDigits bounds an hour's digits, so it fits an int on every
// platform: 18 where int has 64 bits, 9 where it has 32.
const intDigits = strconv.IntSize * 9 / 32

// pow10 holds the powers of ten that are exact doubles.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

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
		if i, m, ok = scanDigits(raw, i, 0); !ok || i == start {
			return false
		}
		v := float64(m)
		if i < len(raw) && raw[i] == '.' {
			frac := i + 1
			if i, m, ok = scanDigits(raw, frac, m); !ok || i == frac || i-frac >= len(pow10) {
				return false
			}
			v = float64(m) / pow10[i-frac]
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

// scanDigits appends the decimal digits at s[i:] to m and returns the
// index after them; false if m would reach a 16th significant digit.
func scanDigits(s []byte, i int, m uint64) (next int, _ uint64, ok bool) {
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		if m >= sigLimit {
			return 0, 0, false
		}
		m = m*10 + uint64(s[i]-'0')
	}
	return i, m, true
}
