package decimal

import (
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// TestPow128 recomputes each row of the Eisel–Lemire table: 10^-k
// scaled by the power of two EiselLemire implies for it, rounded down,
// must be the row's 128 bits, with its top bit set.
func TestPow128(t *testing.T) {
	one := new(big.Int).Lsh(big.NewInt(1), 127)
	for k, row := range pow128 {
		shift := 127 - (217706 * -k >> 16)
		want := new(big.Int).Lsh(big.NewInt(1), uint(shift))
		want.Quo(want, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		got.Or(got, new(big.Int).SetUint64(row[0]))
		if got.Cmp(want) != 0 || want.Cmp(one) < 0 || want.BitLen() != 128 {
			t.Errorf("pow128[%d] = %#x, want %#x (128 bits, top bit set)", k, got, want)
		}
	}
	if MaxFrac != 40 {
		t.Errorf("MaxFrac = %d, want 40", MaxFrac)
	}
}

// checkParse holds Parse to strconv.ParseFloat on s: whatever it
// accepts must be the decimal token s starts with, converted to
// strconv's bits, and a token short enough for Clinger's path must be
// accepted. It reports whether Parse accepted s, and the token's
// significant and fraction digits.
func checkParse(t *testing.T, s string) (ok bool, sig, frac int) {
	t.Helper()
	v, next, ok := Parse([]byte(s), 0)
	tok, sig, frac := leadingToken(s)
	if tok == "" || !ok {
		if ok {
			t.Fatalf("Parse(%q) accepts %q, which is not a decimal token", s, s[:next])
		}
		if tok != "" && sig <= 15 && frac <= 22 {
			t.Fatalf("Parse(%q) declines a token with %d significant and %d fraction digits", s, sig, frac)
		}
		return false, sig, frac
	}
	if s[:next] != tok {
		t.Fatalf("Parse(%q) reads %q, want %q", s, s[:next], tok)
	}
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		t.Fatalf("Parse(%q) accepts %q = %v; strconv: %v", s, tok, v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("Parse(%q) = %v (%#x), strconv %v (%#x)", tok, v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return true, sig, frac
}

// leadingToken returns the decimal token -?[0-9]+(\.[0-9]+)? that s
// starts with, with its significant digits (from the first nonzero one)
// and fraction digits; "" when s starts with none, or with one followed
// by a '.' that no digit follows.
func leadingToken(s string) (tok string, sig, frac int) {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	start, first := i, -1
	digits := func() {
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			if first < 0 && s[i] != '0' {
				first = i
			}
		}
	}
	digits()
	if i == start {
		return "", 0, 0
	}
	point := i
	if i < len(s) && s[i] == '.' {
		i++
		digits()
		if i == point+1 {
			return "", 0, 0
		}
		frac = i - point - 1
	}
	if first >= 0 {
		sig = i - first
		if first < point && frac > 0 {
			sig-- // the point
		}
	}
	return s[:i], sig, frac
}

// parseSeeds are the reader's edge cases: signed zeros, both sides of
// 2^53 and 2^63, exact halfway cases, the digit and fraction limits, and
// forms it must decline or read only a prefix of.
var parseSeeds = []string{
	"0", "-0", "0.0", "-0.000", "00", "007", "1", "-1", "0.5", "99.5",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"-9007199254740993", "9007199254740993.0", "4503599627370496.5", "4503599627370497.5",
	"0.30000000000000004", "0.1", "0.2", "123456.789e3",
	"9223372036854775807", "9223372036854775808", "9223372036854775809", "18446744073709551615",
	"999999999999999", "9999999999999999", "99999999999999999", "999999999999999999",
	"9999999999999999999", "99999999999999999999", "1.234567890123456789", "1.2345678901234567891",
	"0.0000000000000000000001", "0.00000000000000000000001", "1.0000000000000000000000",
	"0.0000000000000000000000000000000000000001", "0.00000000000000000000000000000000000000001",
	"0." + strings.Repeat("0", 30), "-0." + strings.Repeat("0", 30), "0." + strings.Repeat("0", 60) + "1",
	"0.000000000000000000000000000000000000001234567890123456789",
	"1.7976931348623157", "2.2250738585072014", "4.9406564584124654",
	"", "-", "+1", ".5", "1.", "-.5", "1e5", "1E-5", "1.5e3", "0x10", "Inf", "NaN", "1_0", " 1", "1,2", "1..2",
}

func TestParseSeeds(t *testing.T) {
	for _, s := range parseSeeds {
		checkParse(t, s)
	}
	for _, tc := range []struct {
		s    string
		want float64
		ok   bool
	}{
		{"-0", math.Copysign(0, -1), true},
		{"-0." + strings.Repeat("0", 30), math.Copysign(0, -1), true},
		{"0." + strings.Repeat("0", 30), 0, true},
		{"9007199254740993", 9007199254740992, true}, // an integer below 2^63 is one rounded conversion
		{"9999999999999999999", 1e19, true},
		{"99999999999999999999", 0, false},                        // 20 significant digits
		{"0.00000000000000000000000000000000000000001", 0, false}, // 41 fraction digits
		{"1.", 0, false},
	} {
		v, _, ok := Parse([]byte(tc.s), 0)
		if ok != tc.ok || ok && math.Float64bits(v) != math.Float64bits(tc.want) {
			t.Errorf("Parse(%q) = %v, %v; want %v, %v", tc.s, v, ok, tc.want, tc.ok)
		}
	}
	// Exact halfway cases past Clinger's path: Eisel–Lemire cannot tell
	// from 128 bits which way they round, so each is declined or, if
	// accepted, rounded to the even neighbour; never the other one.
	for _, tc := range []struct {
		s    string
		even float64
	}{
		{"4503599627370496.5", 4503599627370496},
		{"4503599627370497.5", 4503599627370498},
		{"9007199254740993.0", 9007199254740992},
		{"18446744073709551617", 18446744073709551616},
	} {
		if v, _, ok := Parse([]byte(tc.s), 0); ok && v != tc.even {
			t.Errorf("Parse(%q) = %v, want %v or a decline", tc.s, v, tc.even)
		}
	}
}

// TestParseMatchesStrconv holds Parse to strconv on ten million random
// tokens, rendered as 'f' with 0–25 fraction digits, as shortest 'f' and
// as shortest 'g' (whose exponent Parse leaves unread), of both signs
// and magnitudes from 1e-25 to 1e20. Within its digit limits Parse may
// decline only values on or next to a halfway point or a double, which
// fixed-precision renderings of large doubles often are (0.9% of these
// tokens), and both of its exact paths must have taken part.
func TestParseMatchesStrconv(t *testing.T) {
	n := 10_000_000
	if testing.Short() || raceEnabled {
		n = 1_000_000
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var buf []byte
	inLimits, declined, eiselLemire := 0, 0, 0
	for range n {
		x := rng.Float64() * math.Pow(10, float64(rng.IntN(46)-25))
		if rng.IntN(2) == 0 {
			x = -x
		}
		switch r := rng.IntN(28); {
		case r < 26:
			buf = strconv.AppendFloat(buf[:0], x, 'f', r, 64)
		case r == 26:
			buf = strconv.AppendFloat(buf[:0], x, 'f', -1, 64)
		default:
			buf = strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
		}
		ok, sig, frac := checkParse(t, string(buf))
		if sig > MaxDigits || frac > MaxFrac && sig > 0 {
			continue
		}
		inLimits++
		switch {
		case !ok:
			declined++
		case sig > 15 || frac > 22:
			eiselLemire++
		}
	}
	t.Logf("%d of %d tokens within the digit limits: %d declined, %d past Clinger's path", inLimits, n, declined, eiselLemire)
	if inLimits < n/2 || declined > inLimits/50 || eiselLemire < inLimits/10 {
		t.Errorf("%d of %d tokens within the digit limits, %d declined, %d past Clinger's path; "+
			"want half, at most 2%% and a tenth", inLimits, n, declined, eiselLemire)
	}
}

// FuzzDecimal holds Parse to strconv.ParseFloat bit for bit on any
// prefix it accepts, and to accepting every short decimal token.
func FuzzDecimal(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s)
	})
}

// TestConvertMatchesStrconv holds Exact and, where it declines,
// EiselLemire to strconv on mantissas at the edges of each path: around
// 2^53 and 2^63 and up to the 19-digit limit, at every fraction length
// the table covers and one past it.
func TestConvertMatchesStrconv(t *testing.T) {
	ms := []uint64{0, 1, 5, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3,
		1<<63 - 1, 1 << 63, 1<<63 + 1, 1e18, 1e19 - 1, 12345678901234567, 30000000000000004}
	for k := 0; k <= MaxFrac+1; k++ {
		for _, m := range ms {
			s := strconv.FormatUint(m, 10)
			if k > 0 {
				s = strings.Repeat("0", max(0, k+1-len(s))) + s
				s = s[:len(s)-k] + "." + s[len(s)-k:]
			}
			want, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatal(err)
			}
			v, ok := Exact(m, k)
			if !ok {
				if k <= 22 && m < 1<<53 {
					t.Errorf("Exact(%d, %d) declines on Clinger's path", m, k)
				}
				v, ok = EiselLemire(m, k)
			}
			switch {
			case ok && math.Float64bits(v) != math.Float64bits(want):
				t.Errorf("%d/10^%d = %v, strconv(%s) %v", m, k, v, s, want)
			case ok && m != 0 && k > MaxFrac:
				t.Errorf("EiselLemire(%d, %d) = %v past the table, want a decline", m, k, v)
			case !ok && m == 0:
				t.Errorf("0/10^%d declined", k)
			}
		}
	}
}
