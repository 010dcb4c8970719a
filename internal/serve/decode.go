package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"hddcart/internal/smart"
)

// decodeIngestLine decodes one JSON-lines ingest row into rec and returns
// its serial. A single-pass scanner handles the canonical shape; any line
// it declines goes through json.Unmarshal and record(), so the result,
// error text included, is always what the standard decoder gives. There
// is no third answer: the scanner never rejects a line.
func decodeIngestLine(line []byte, rec *smart.Record) (string, error) {
	if start, end, ok := scanIngestLine(line, rec); ok {
		return string(line[start:end]), nil
	}
	var ir ingestRecord
	if err := json.Unmarshal(line, &ir); err != nil {
		return "", err
	}
	var err error
	*rec, err = ir.record()
	return ir.Serial, err
}

// Key bits of scanIngestLine: each key must appear exactly once.
const (
	keySerial = 1 << iota
	keyHour
	keyNormalized
	keyRaw
	keysAll = keySerial | keyHour | keyNormalized | keyRaw
)

// scanIngestLine is the allocation-free fast path of decodeIngestLine. It
// accepts an object with exactly the keys serial, hour, normalized and
// raw, in any order, each once and spelled exactly, with JSON whitespace
// anywhere: a non-empty serial of printable ASCII with no escapes, an
// integer hour that fits in an int, and smart.NumAttrs numbers in each
// array. Numbers go through strconv.ParseFloat on the token bytes, as
// encoding/json converts them. It writes the values into rec and returns
// the serial's span; ok is false for every other line (rec is then partly
// written), including everything json.Unmarshal would accept differently
// — escapes and non-ASCII bytes it rewrites, case-folded or duplicate
// keys it matches, nulls and unknown keys it skips.
//
//hddlint:noalloc
func scanIngestLine(b []byte, rec *smart.Record) (serialStart, serialEnd int, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return 0, 0, false
	}
	have := 0
	for {
		i = skipSpace(b, i+1)
		keyEnd, ok := scanPlainString(b, i)
		if !ok {
			return 0, 0, false
		}
		var key int
		switch string(b[i+1 : keyEnd]) {
		case "serial":
			key = keySerial
		case "hour":
			key = keyHour
		case "normalized":
			key = keyNormalized
		case "raw":
			key = keyRaw
		}
		if key == 0 || have&key != 0 {
			return 0, 0, false
		}
		have |= key
		i = skipSpace(b, keyEnd+1)
		if i >= len(b) || b[i] != ':' {
			return 0, 0, false
		}
		i = skipSpace(b, i+1)
		switch key {
		case keySerial:
			end, ok := scanPlainString(b, i)
			if !ok || end == i+1 {
				return 0, 0, false
			}
			serialStart, serialEnd, i = i+1, end, end+1
		case keyHour:
			end, integer, ok := scanNumber(b, i)
			if !ok || !integer {
				return 0, 0, false
			}
			h, err := strconv.Atoi(string(b[i:end]))
			if err != nil {
				return 0, 0, false
			}
			rec.Hour, i = h, end
		case keyNormalized:
			if i, ok = scanFloats(b, i, rec.Normalized[:]); !ok {
				return 0, 0, false
			}
		case keyRaw:
			if i, ok = scanFloats(b, i, rec.Raw[:]); !ok {
				return 0, 0, false
			}
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return 0, 0, false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return 0, 0, false
		}
	}
	if have != keysAll || skipSpace(b, i+1) != len(b) {
		return 0, 0, false
	}
	return serialStart, serialEnd, true
}

// scanFloats parses the JSON array at b[i] into dst, which it must fill
// exactly, and returns the index past its ']'.
//
//hddlint:noalloc
func scanFloats(b []byte, i int, dst []float64) (int, bool) {
	if i >= len(b) || b[i] != '[' {
		return 0, false
	}
	i++
	for k := range dst {
		i = skipSpace(b, i)
		if k > 0 {
			if i >= len(b) || b[i] != ',' {
				return 0, false
			}
			i = skipSpace(b, i+1)
		}
		end, _, ok := scanNumber(b, i)
		if !ok {
			return 0, false
		}
		v, err := strconv.ParseFloat(string(b[i:end]), 64)
		if err != nil {
			return 0, false
		}
		dst[k], i = v, end
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ']' {
		return 0, false
	}
	return i + 1, true
}

// scanNumber returns the end of the number token at b[i]; ok is false
// unless the token follows JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv accepts more
// (Inf, hex, underscores, a leading '+' or '.', a trailing '.'), so only
// tokens that pass here may reach it. integer reports a token with no
// fraction or exponent. The caller checks what follows the token.
//
//hddlint:noalloc
func scanNumber(b []byte, i int) (end int, integer, ok bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0, false, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0, false, false
		}
		i = j
	}
	return i, integer, true
}

// scanPlainString returns the index of the closing quote of the JSON
// string at b[i]. ok is false for escapes, control bytes and bytes ≥0x80,
// which json.Unmarshal unescapes, rejects or validates as UTF-8
// (rewriting invalid sequences to U+FFFD).
//
//hddlint:noalloc
func scanPlainString(b []byte, i int) (end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return 0, false
		}
	}
	return 0, false
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// lineBufs pools the initial bufio.Scanner buffer of ingestJSONL. A line
// that outgrows it makes the scanner allocate its own, up to
// maxLineBytes; the pooled buffer is returned as it was.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

// errLineTooLong is the parse error of a line that does not fit in
// maxLineBytes, its '\n' included.
var errLineTooLong = fmt.Errorf("line longer than %d bytes", maxLineBytes)

// lineSplitter is a bufio.SplitFunc state around bufio.ScanLines for a
// scanner whose buffer is capped at maxLineBytes. A line that does not
// fit, which would stop a plain scanner with bufio.ErrTooLong, is
// skipped through its '\n' and stands as one empty token with tooLong
// set; the lines after it still arrive.
type lineSplitter struct {
	skipping bool // inside an over-long line
	// tooLong marks the last token as an over-long line; unterminated
	// marks it as ended by the end of input rather than a '\n'.
	tooLong, unterminated bool
}

func (ls *lineSplitter) split(data []byte, atEOF bool) (int, []byte, error) {
	ls.tooLong, ls.unterminated = false, false
	nl := bytes.IndexByte(data, '\n')
	switch {
	case ls.skipping && nl >= 0:
		ls.skipping, ls.tooLong = false, true
		return nl + 1, data[:0], nil
	case ls.skipping && atEOF:
		ls.skipping, ls.tooLong, ls.unterminated = false, true, true
		return len(data), data[:0], nil
	case ls.skipping || nl < 0 && len(data) >= maxLineBytes:
		ls.skipping = true
		return len(data), nil, nil
	}
	ls.unterminated = nl < 0 && atEOF
	return bufio.ScanLines(data, atEOF)
}
