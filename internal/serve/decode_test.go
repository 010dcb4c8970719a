package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"hddcart/internal/smart"
)

// stdlibLine is the reference decode of one line: json.Unmarshal into an
// ingestRecord, then record().
func stdlibLine(line []byte) (string, smart.Record, error) {
	var ir ingestRecord
	if err := json.Unmarshal(line, &ir); err != nil {
		return "", smart.Record{}, err
	}
	rec, err := ir.record()
	return ir.Serial, rec, err
}

// sameRecord compares records bit for bit, so −0 and +0 differ.
func sameRecord(a, b *smart.Record) bool {
	if a.Hour != b.Hour {
		return false
	}
	for i := range a.Normalized {
		if math.Float64bits(a.Normalized[i]) != math.Float64bits(b.Normalized[i]) ||
			math.Float64bits(a.Raw[i]) != math.Float64bits(b.Raw[i]) {
			return false
		}
	}
	return true
}

// renderLine renders a line as the serve-http benchmark does: values in
// the shortest form that parses back to the same float64.
func renderLine(serial string, r *smart.Record) []byte {
	b := []byte(`{"serial":"` + serial + `","hour":`)
	b = strconv.AppendInt(b, int64(r.Hour), 10)
	b = append(b, `,"normalized":[`...)
	for i, v := range r.Normalized {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, `],"raw":[`...)
	for i, v := range r.Raw {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "]}"...)
}

// array renders n JSON array elements: first, then zeros.
func array(first string, n int) string {
	return "[" + first + strings.Repeat(",0", n-1) + "]"
}

// jsonLine builds an ingest line from raw JSON fragments.
func jsonLine(serial, hour, norm, raw string) string {
	return `{"serial":` + serial + `,"hour":` + hour + `,"normalized":` + norm + `,"raw":` + raw + `}`
}

// ingestLineSeeds are the decoder's adversarial cases. fast says whether
// the scanner must take the line itself; every other line must reach the
// standard decoder.
func ingestLineSeeds() []struct {
	name, line string
	fast       bool
} {
	n := smart.NumAttrs
	z := array("0", n)
	marshaled, _ := json.Marshal(ingestRecord{Serial: "W-000001", Hour: 17,
		Normalized: []float64{100, 99.5, 1e21, 1e-7, -3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 253},
		Raw:        make([]float64, n)})
	html, _ := json.Marshal(ingestRecord{Serial: "a<b&c>", Hour: 1, Normalized: make([]float64, n), Raw: make([]float64, n)})
	var vals smart.Record
	vals.Hour = 1343
	for i := range vals.Normalized {
		vals.Normalized[i] = 100 - float64(i)*1.37
		vals.Raw[i] = float64(i*i*12345) / 7
	}
	return []struct {
		name, line string
		fast       bool
	}{
		{"marshaled", string(marshaled), true},
		{"rendered", string(renderLine("Q-000042", &vals)), true},
		{"reordered", `{"raw":` + z + `,"hour":3,"serial":"d","normalized":` + z + `}`, true},
		{"whitespace", " \t{ \"serial\" :\t\"d\" ,\r\"hour\": 3 , \"normalized\" : [ 0" + strings.Repeat(" , 0", n-1) + " ] ,\"raw\":" + z + " }\r ", true},
		{"serial punctuation", jsonLine(`"a b~!#"`, "0", z, z), true},
		{"negative zero", jsonLine(`"d"`, "-0", array("-0", n), array("-0.0", n)), true},
		{"exponents", jsonLine(`"d"`, "2", array("1E5", n), array("-1.5e-3", n)), true},
		{"exponent sign", jsonLine(`"d"`, "2", array("1e+06", n), array("2E-0", n)), true},
		{"negative hour", jsonLine(`"d"`, "-7", z, z), true},
		{"underflow", jsonLine(`"d"`, "0", array("1e-400", n), z), true},
		{"max hour", jsonLine(`"d"`, "9223372036854775807", z, z), true},
		{"long mantissa", jsonLine(`"d"`, "0", array("3.14159265358979323846264338327950288419716939937510", n), z), true},

		{"escaped quote", jsonLine(`"a\"b"`, "0", z, z), false},
		{"escaped e-acute", jsonLine(`"caf\u00e9"`, "0", z, z), false},
		{"raw e-acute", jsonLine(`"café"`, "0", z, z), false},
		{"invalid utf-8", jsonLine("\"a\xffb\"", "0", z, z), false},
		{"control byte", jsonLine("\"a\x01b\"", "0", z, z), false},
		{"html-escaped serial", string(html), false},
		{"empty serial", jsonLine(`""`, "0", z, z), false},
		{"case-folded key", `{"Serial":"d","hour":0,"normalized":` + z + `,"raw":` + z + `}`, false},
		{"escaped key", `{"ser\u0069al":"d","hour":0,"normalized":` + z + `,"raw":` + z + `}`, false},
		{"duplicate key", `{"serial":"a","serial":"b","hour":0,"normalized":` + z + `,"raw":` + z + `}`, false},
		{"unknown key", `{"serial":"d","extra":1,"hour":0,"normalized":` + z + `,"raw":` + z + `}`, false},
		{"null hour", jsonLine(`"d"`, "null", z, z), false},
		{"null serial", jsonLine("null", "0", z, z), false},
		{"null array", jsonLine(`"d"`, "0", "null", z), false},
		{"null element", jsonLine(`"d"`, "0", array("null", n), z), false},
		{"missing hour", `{"serial":"d","normalized":` + z + `,"raw":` + z + `}`, false},
		{"out of range", jsonLine(`"d"`, "0", array("1e400", n), z), false},
		{"hex", jsonLine(`"d"`, "0", array("0x10", n), z), false},
		{"infinity", jsonLine(`"d"`, "0", array("Infinity", n), z), false},
		{"inf", jsonLine(`"d"`, "0", array("Inf", n), z), false},
		{"underscore", jsonLine(`"d"`, "0", array("1_0", n), z), false},
		{"plus", jsonLine(`"d"`, "0", array("+1", n), z), false},
		{"leading zero", jsonLine(`"d"`, "0", array("01", n), z), false},
		{"leading dot", jsonLine(`"d"`, "0", array(".5", n), z), false},
		{"trailing dot", jsonLine(`"d"`, "0", array("1.", n), z), false},
		{"bare exponent", jsonLine(`"d"`, "0", array("1e", n), z), false},
		{"string element", jsonLine(`"d"`, "0", array(`"1"`, n), z), false},
		{"fractional hour", jsonLine(`"d"`, "5.0", z, z), false},
		{"exponent hour", jsonLine(`"d"`, "1e2", z, z), false},
		{"huge hour", jsonLine(`"d"`, "99999999999999999999", z, z), false},
		{"string hour", jsonLine(`"d"`, `"5"`, z, z), false},
		{"short array", jsonLine(`"d"`, "0", array("0", n-1), z), false},
		{"long array", jsonLine(`"d"`, "0", array("0", n+1), z), false},
		{"empty array", jsonLine(`"d"`, "0", "[]", z), false},
		{"trailing comma", jsonLine(`"d"`, "0", "[0"+strings.Repeat(",0", n-1)+",]", z), false},
		{"trailing garbage", jsonLine(`"d"`, "0", z, z) + "x", false},
		{"second value", jsonLine(`"d"`, "0", z, z) + " {}", false},
		{"unclosed", strings.TrimSuffix(jsonLine(`"d"`, "0", z, z), "}"), false},
		{"object comma", strings.TrimSuffix(jsonLine(`"d"`, "0", z, z), "}") + ",}", false},
		{"empty object", `{}`, false},
		{"null", `null`, false},
		{"array", `[]`, false},
		{"blank", ` `, false},
		{"broken", `{broken json`, false},
	}
}

// TestDecodeIngestLineSeeds checks every seed decodes as the standard
// decoder does, and that the scanner takes exactly the lines it should.
func TestDecodeIngestLineSeeds(t *testing.T) {
	for _, tc := range ingestLineSeeds() {
		t.Run(tc.name, func(t *testing.T) {
			var scratch smart.Record
			_, _, fast := scanIngestLine([]byte(tc.line), &scratch)
			if fast != tc.fast {
				t.Errorf("scanner accepted=%v, want %v", fast, tc.fast)
			}
			checkIngestLine(t, []byte(tc.line))
		})
	}
}

// checkIngestLine requires decodeIngestLine to match the standard decoder
// on line: the same serial and record bit for bit, or the same error.
func checkIngestLine(t *testing.T, line []byte) {
	t.Helper()
	wantSerial, wantRec, wantErr := stdlibLine(line)
	var rec smart.Record
	serial, err := decodeIngestLine(line, &rec)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: error %v, standard decoder %v", line, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%q: error %q, standard decoder %q", line, err, wantErr)
	case err == nil && (serial != wantSerial || !sameRecord(&rec, &wantRec)):
		t.Fatalf("%q: decoded %q %+v, standard decoder %q %+v", line, serial, rec, wantSerial, wantRec)
	}
}

// FuzzIngestLine checks the fast decoder against the standard one on
// arbitrary lines: whatever the scanner accepts, json.Unmarshal plus
// record() must give bit for bit.
func FuzzIngestLine(f *testing.F) {
	for _, tc := range ingestLineSeeds() {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkIngestLine(t, line)
	})
}

// ingested is one record a batch handed to Ingest.
type ingested struct {
	serial string
	rec    smart.Record
}

// recordingSink collects what reaches Ingest and rejects every fifth
// record, so rejections are accounted too.
func recordingSink(got *[]ingested) func(string, smart.Record) Disposition {
	return func(serial string, rec smart.Record) Disposition {
		*got = append(*got, ingested{serial, rec})
		if len(*got)%5 == 0 {
			return Rejected
		}
		return Accepted
	}
}

// referenceJSONL is the standard-library ingest loop the fast path
// replaces: bufio.Scanner lines, json.Unmarshal and record().
func referenceJSONL(body io.Reader, sum *IngestSummary, ingest func(string, smart.Record) Disposition) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ir ingestRecord
		if err := json.Unmarshal(raw, &ir); err != nil {
			sum.parseError(line, err.Error())
			continue
		}
		rec, err := ir.record()
		if err != nil {
			sum.parseError(line, err.Error())
			continue
		}
		sum.count(ingest(ir.Serial, rec))
	}
	if err := sc.Err(); err != nil {
		sum.parseError(line+1, err.Error())
	}
}

// TestIngestJSONLMatchesStdlib runs whole bodies through ingestJSONL and
// the standard-library loop and requires the same summary, error text
// included, and the same records reaching Ingest, in the same order.
func TestIngestJSONLMatchesStdlib(t *testing.T) {
	var lines []string
	for _, tc := range ingestLineSeeds() {
		lines = append(lines, tc.line)
	}
	good := jsonLine(`"d"`, "0", array("0", smart.NumAttrs), array("0", smart.NumAttrs))
	// padded returns good padded with spaces to n bytes.
	padded := func(n int) string {
		return strings.Replace(good, ",", strings.Repeat(" ", n-len(good))+",", 1)
	}
	bodies := map[string]string{
		"seeds lf":          strings.Join(lines, "\n") + "\n",
		"seeds crlf":        strings.Join(lines, "\r\n") + "\r\n",
		"no final newline":  strings.Join(lines, "\n"),
		"blank lines":       "\n\n" + good + "\n\r\n\n" + good + "\n\n",
		"whitespace line":   good + "\n \n\t\n" + good,
		"double cr":         good + "\r\r\n" + good + "\r",
		"grown buffer":      good + "\n" + padded(200<<10) + "\n" + good + "\n",
		"grown, no newline": good + "\n" + padded(200<<10),
		"empty":             "",
		"only newline":      "\n",
		// The longest line that fits, and the shortest that does not;
		// the standard loop stops at the latter, so it comes last.
		"at the limit":         good + "\n" + padded(maxLineBytes-1) + "\n" + good + "\n",
		"past the limit":       good + "\n" + padded(maxLineBytes) + "\n",
		"past the limit, crlf": good + "\r\n" + padded(maxLineBytes-1) + "\r\n",
	}
	for name, body := range bodies {
		for _, rd := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"byte", iotest.OneByteReader},
			{"half", iotest.HalfReader},
		} {
			if rd.name == "byte" && len(body) > 64<<10 {
				continue // bufio.Scanner rescans a line on every one-byte read
			}
			t.Run(name+"/"+rd.name, func(t *testing.T) {
				var wantSum, gotSum IngestSummary
				var want, got []ingested
				referenceJSONL(strings.NewReader(body), &wantSum, recordingSink(&want))
				if err := ingestJSONL(rd.wrap(strings.NewReader(body)), &gotSum, recordingSink(&got)); err != nil {
					t.Fatal(err)
				}
				// The standard loop reports an over-long line as
				// bufio.ErrTooLong.
				if strings.ReplaceAll(fmt.Sprint(gotSum), errLineTooLong.Error(), bufio.ErrTooLong.Error()) != fmt.Sprint(wantSum) {
					t.Errorf("summary %+v, standard loop %+v", gotSum, wantSum)
				}
				if len(got) != len(want) {
					t.Fatalf("%d records ingested, standard loop %d", len(got), len(want))
				}
				for i := range got {
					if got[i].serial != want[i].serial || !sameRecord(&got[i].rec, &want[i].rec) {
						t.Errorf("record %d: %q %+v, standard loop %q %+v", i, got[i].serial, got[i].rec, want[i].serial, want[i].rec)
					}
				}
			})
		}
	}
}

// TestIngestJSONLLongLines checks a line that does not fit in
// maxLineBytes, its '\n' included, is one line-pinned parse error
// wherever it falls and the lines after it still land, and that a read
// error ends the body in place of the line it cut.
func TestIngestJSONLLongLines(t *testing.T) {
	good := jsonLine(`"d"`, "0", array("0", smart.NumAttrs), array("0", smart.NumAttrs))
	long := strings.Repeat("x", maxLineBytes)
	for _, tc := range []struct {
		name, body string
		accepted   int
		errLines   []int
	}{
		{"middle", good + "\n" + long + "\n" + good + "\n", 2, []int{2}},
		{"last, no newline", good + "\n" + long, 1, []int{2}},
		{"first, crlf", long[1:] + "\r\n" + good + "\r\n", 1, []int{1}},
		{"two", long + "\n" + long + "\n" + good, 1, []int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sum IngestSummary
			var got []ingested
			if err := ingestJSONL(iotest.HalfReader(strings.NewReader(tc.body)), &sum, recordingSink(&got)); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, l := range tc.errLines {
				want = append(want, fmt.Sprintf("line %d: %v", l, errLineTooLong))
			}
			if len(got) != tc.accepted || fmt.Sprint(sum.Errors) != fmt.Sprint(want) {
				t.Errorf("%d ingested, errors %q; want %d, %q", len(got), sum.Errors, tc.accepted, want)
			}
		})
	}

	cut := io.MultiReader(strings.NewReader(good+"\n"+good+"\n"+good[:10]), iotest.ErrReader(io.ErrUnexpectedEOF))
	var sum IngestSummary
	var got []ingested
	err := ingestJSONL(cut, &sum, recordingSink(&got))
	if err != io.ErrUnexpectedEOF || len(got) != 2 || fmt.Sprint(sum.Errors) != "[line 3: unexpected EOF]" {
		t.Errorf("cut body: %v, %d ingested, errors %q; want the read error, 2, [line 3: unexpected EOF]", err, len(got), sum.Errors)
	}
}

// TestDecodeIngestLineAllocs pins the allocation contract: the scanner
// allocates nothing, and a canonical line costs one allocation, its
// serial, which the shard queue keeps.
func TestDecodeIngestLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var vals smart.Record
	for i := range vals.Normalized {
		vals.Normalized[i] = 100 - float64(i)*1.37
		vals.Raw[i] = float64(i * 4099)
	}
	l := renderLine("W-000001", &vals)
	var rec smart.Record
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := scanIngestLine(l, &rec); !ok {
			t.Fatal("scanner declined a canonical line")
		}
	}); allocs != 0 {
		t.Errorf("scanIngestLine allocates %.1f per line, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := decodeIngestLine(l, &rec); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("decodeIngestLine allocates %.1f per line, want at most 1", allocs)
	}
	body := bytes.Repeat(append(l, '\n'), 100)
	var sum IngestSummary
	sink := func(string, smart.Record) Disposition { return Accepted }
	if allocs := testing.AllocsPerRun(100, func() {
		_ = ingestJSONL(bytes.NewReader(body), &sum, sink)
	}); allocs > 100+3 {
		// One per line, plus the body reader and the splitter's state
		// and method value.
		t.Errorf("ingestJSONL allocates %.1f per 100-line body, want at most 103", allocs)
	}
}
