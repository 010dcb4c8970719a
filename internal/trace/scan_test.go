package trace

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hddcart/internal/decimal"
	"hddcart/internal/smart"
)

// numberCases are the numbers at the fast path's accept/decline
// boundary: forms strconv accepts that the scanner declines, forms
// neither accepts, the digit limits on either side, and the values
// package decimal converts by Eisel–Lemire or declines as halfway cases.
var numberCases = []string{
	"-0", "0", "0.", ".5", "-.5", "+1", "007", "1e5", "1.2345678e-05",
	"Inf", "NaN", "1_0", " 1", "1 ", "", "-", "--1", "1..2", "1.2.3", "0x1p-2",
	"99.5", "1000000", "-12.25", "0.000123", "100.00000000",
	"123456789012345", "-123456789012345", "0.00123456789012345", // 15 significant digits
	"1234567890123456", "1.234567890123456", "0.001234567890123456", // 16
	"999999999999999", "9999999999999999", "900719925474099.1",
	"0.0000000000000000000001", "0.00000000000000000000001", // 22 and 23 fraction digits
	"1.0000000000000000000000", "0.0000000000000000000000",
	"123456789012345678", "-123456789012345678", "1234567890123456789",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808",
	"9007199254740993", "4503599627370496.5", "0.30000000000000004", // two halfway cases; 17 digits
	"9999999999999999999", "99999999999999999999", "1.2345678901234567891", // 19, 20 and 20 digits
	"0.0000000000000000000000000000000000000001", "0.00000000000000000000000000000000000000001", // 40, 41 fraction digits
	"0." + strings.Repeat("0", 30), "-0." + strings.Repeat("0", 50), "0.00000000000000000000000000000000000000100",
	"true", "false", "True", "TRUE", "t", "1", "f", "F", "FALSE", "False", "0",
}

func TestScanNumber(t *testing.T) {
	for _, s := range numberCases {
		checkNumber(t, s)
	}
}

// FuzzTraceNumber holds the fast path to strconv on every field string:
// the scanner accepts only canonical forms and every short one, an
// accepted value has strconv's bits (or Atoi's value), and a row holding
// the string in any canonical column decodes through the block decoder
// to what ParseRow gives, value for value or error for error, whether
// the scanner took it or declined.
func FuzzTraceNumber(f *testing.F) {
	for _, s := range numberCases {
		f.Add(s)
	}
	f.Fuzz(checkNumber)
}

var (
	canonicalFloat = regexp.MustCompile(`^-?([0-9]+)(?:\.([0-9]+))?$`)
	canonicalInt   = regexp.MustCompile(`^-?[0-9]{1,` + strconv.Itoa(intDigits) + `}$`)
)

// floatDecision returns what the scanner may and must do with s as a
// value. It may accept only the canonical form with at most 19
// significant digits and, unless they are all zeros, at most 40 fraction
// digits; it must accept one with at most 15 significant digits and 22
// fraction digits, which Clinger's path always decides. In between,
// Eisel–Lemire decides all but values on or next to a halfway point,
// which the scanner declines.
func floatDecision(s string) (may, must bool) {
	m := canonicalFloat.FindStringSubmatch(s)
	if m == nil {
		return false, false
	}
	sig := strings.TrimLeft(m[1]+m[2], "0")
	may = len(sig) <= decimal.MaxDigits && (sig == "" || len(m[2]) <= decimal.MaxFrac)
	return may, len(sig) <= 15 && len(m[2]) <= 22
}

// checkNumber checks the scanner's decision for s in each canonical
// column of a row, and the block decoder's parse of that row against
// strconv's, whether the scanner took the row or declined it.
func checkNumber(t *testing.T, s string) {
	if strings.ContainsAny(s, ",\"\r\n") {
		return // not one field of an unquoted line
	}
	mayFloat, mustFloat := floatDecision(s)
	isFlag, isInt := s == "true" || s == "false", canonicalInt.MatchString(s)
	cols := []struct {
		col       int
		may, must bool
	}{
		{2, isFlag, isFlag},
		{3, isInt, isInt},
		{4, isInt, isInt},
		{5, mayFloat, mustFloat},
		// Raw[0] is the first value parseRow reads after a normalized one
		// that the scanner has already overwritten: a declined row with an
		// error there shows whether the decline reset the row.
		{5 + smart.NumAttrs, mayFloat, mustFloat},
		{numColumns - 1, mayFloat, mustFloat},
	}
	for _, c := range cols {
		fields := strings.Split("d,W,false,-1,7"+strings.Repeat(",1", 2*smart.NumAttrs), ",")
		fields[c.col] = s
		line := strings.Join(fields, ",")
		var rw row
		if got := scanRow(&rw, []byte(line)); got && !c.may || !got && c.must {
			t.Fatalf("column %d = %q: scanRow accepts: %v, want may %v, must %v", c.col, s, got, c.may, c.must)
		}
		checkLine(t, line)
	}
}

// checkLine parses line, the second line of a stream, as the block
// decoder does and holds the row to ParseRow's on the same fields: the
// same serial, meta and record bit for bit, including the part of the
// row parsed before an error, and the same error.
func checkLine(t *testing.T, line string) {
	t.Helper()
	meta, rec, want := ParseRow(strings.Split(line, ","), 2)
	b := &block{data: []byte(line + "\n"), line0: 1}
	b.cut = len(b.data)
	parseBlock(b, make([][]byte, numColumns), make([]string, numColumns))
	if len(b.rows) != 1 || b.rows[0].err != nil {
		t.Fatalf("%q: parseBlock gives %d rows, want 1 with no CSV error", line, len(b.rows))
	}
	rw := &b.rows[0]
	got := rw.perr
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%q: parseBlock gives %v, ParseRow %v", line, got, want)
	}
	if string(rw.serial) != meta.Serial || rw.meta.Failed != meta.Failed || rw.meta.FailHour != meta.FailHour ||
		!sameRecords([]smart.Record{rw.rec}, []smart.Record{rec}) {
		t.Fatalf("%q: parseBlock gives %q %+v %v, ParseRow %+v %v", line, rw.serial, rw.meta, rw.rec, meta, rec)
	}
}
