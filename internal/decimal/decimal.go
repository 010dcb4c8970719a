// Package decimal reads plain decimal numbers, -?[0-9]+(\.[0-9]+)?, into
// float64 without strconv, for the two hot decoders: the trace reader's
// canonical rows and the serve JSONL ingest lines.
//
// Every value it returns is correctly rounded, so its bits are the ones
// strconv.ParseFloat returns for the same token; anything it cannot
// decide that way it declines, and the caller hands the token to strconv.
// A token's digits m (at most MaxDigits significant ones, so m fits a
// uint64) over 10^k, k its fraction digits, are converted by one of two
// exact paths:
//
//   - Clinger's: when m < 2^53 and k ≤ 22, float64(m) and 10^k are both
//     exact doubles, so the one IEEE division float64(m)/10^k rounds the
//     true quotient correctly (an integer needs no division at all);
//   - Eisel–Lemire's otherwise (k ≤ MaxFrac): m times a 128-bit
//     truncation of 10^-k, which either proves the correctly rounded
//     result or reports that it cannot, on or next to a double or a
//     halfway point between two.
//
// Exponents, more than MaxDigits significant digits and more than
// MaxFrac fraction digits are declined. Digits, Exact and EiselLemire
// are the pieces Parse is built from; a caller on a hot loop can inline
// the first two and call EiselLemire only when Exact declines.
package decimal

// MaxDigits is the most significant digits a token may carry: with 19,
// m < 10^19 < 2^64.
const MaxDigits = 19

// sigLimit bounds m: an m at or above it has MaxDigits significant digits
// already, and one more could overflow a uint64.
const sigLimit = 1e18

// MaxFrac is the most fraction digits EiselLemire converts: the last
// power in its table of 128-bit powers of ten.
const MaxFrac = len(pow128) - 1

// pow10 holds the powers of ten that are exact doubles.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Digits appends the decimal digits at s[i:] to m and returns the index
// after them; false if m would reach a 20th significant digit. Leading
// zeros are not significant: they leave m at 0.
func Digits(s []byte, i int, m uint64) (next int, _ uint64, ok bool) {
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		if m >= sigLimit {
			return 0, 0, false
		}
		m = m*10 + uint64(s[i]-'0')
	}
	return i, m, true
}

// Exact returns m/10^k by Clinger's fast path: false when m ≥ 2^53 or
// 10^k is not an exact double. An integer (k == 0) below 2^63 is one
// correctly rounded conversion, with no division and no bound on m.
func Exact(m uint64, k int) (float64, bool) {
	if k == 0 && int64(m) >= 0 {
		return float64(int64(m)), true
	}
	if m>>53 != 0 || uint(k) >= uint(len(pow10)) {
		return 0, false
	}
	return float64(int64(m)) / pow10[k], true
}

// Parse reads the decimal -?[0-9]+(\.[0-9]+)? at s[i:] and returns its
// value, correctly rounded, and the index after it. ok is false when
// s[i:] does not start with one, when a '.' after its digits has no
// digit after it, when its digits exceed MaxDigits, or when EiselLemire
// declines them; what follows the token is the caller's to check.
func Parse(s []byte, i int) (v float64, next int, ok bool) {
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	start := i
	var m uint64
	if i, m, ok = Digits(s, i, 0); !ok || i == start {
		return 0, 0, false
	}
	k := 0
	if i < len(s) && s[i] == '.' {
		frac := i + 1
		if i, m, ok = Digits(s, frac, m); !ok || i == frac {
			return 0, 0, false
		}
		k = i - frac
	}
	if v, ok = Exact(m, k); !ok {
		if v, ok = EiselLemire(m, k); !ok {
			return 0, 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, i, true
}
