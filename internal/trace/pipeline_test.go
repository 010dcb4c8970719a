package trace

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hddcart/internal/smart"
)

// nativeRow renders one row of the native layout with every value 1.
func nativeRow(serial string, hour string) string {
	return serial + ",W,false,-1," + hour + strings.Repeat(",1", 2*smart.NumAttrs) + "\n"
}

// TestNextAfterError pins what Next does once it has returned an error:
// it goes on from the row after the one in error, so a reappearing
// serial or a later drive is reported as such.
func TestNextAfterError(t *testing.T) {
	data := strings.Join(Header(), ",") + "\n" +
		nativeRow("A", "0") + nativeRow("A", "1") +
		nativeRow("B", "x") + nativeRow("B", "1") + // bad first row, then B again
		nativeRow("C", "0") + nativeRow("C", "y") + nativeRow("C", "2") + // bad second row
		nativeRow("D", "0") + "D,W\n" + // wrong field count
		nativeRow("E", "0") + nativeRow("E", "0") + // not chronological
		nativeRow("F", "0")
	want := []string{
		"A×2 <nil>",
		`B×1 trace: line 4 (drive B): bad hour "x": strconv.Atoi: parsing "x": invalid syntax`,
		"B×0 trace: line 5 (drive B): rows not contiguous: the drive's earlier rows end before this line",
		`C×1 trace: line 7 (drive C): bad hour "y": strconv.Atoi: parsing "y": invalid syntax`,
		"C×0 trace: line 8 (drive C): rows not contiguous: the drive's earlier rows end before this line",
		"D×1 trace: read row: record on line 10: wrong number of fields",
		"E×1 trace: line 12 (drive E): rows not chronological at hour 0",
		"F×1 <nil>",
	}
	for _, size := range fuzzBlockSizes {
		r, err := openReader(strings.NewReader(data), size)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			dt, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			got = append(got, fmt.Sprintf("%s×%d %v", dt.Meta.Serial, len(dt.Records), err))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("block %d: Next gives\n%s\nwant\n%s", size, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// failAfter yields data, then fails one Read with err, then reports EOF.
func failAfter(data string, err error) io.Reader {
	return io.MultiReader(strings.NewReader(data), &onceErr{err: err})
}

// TestReaderReadError pins a read error: the rows before it decode, the
// partial line it cuts is dropped, the error ends the drive it
// interrupts, and Next goes on past it. A read error met by a block still
// in flight at the hand-off reaches encoding/csv at its place in the
// stream.
func TestReaderReadError(t *testing.T) {
	boom := errors.New("boom")
	header := strings.Join(Header(), ",") + "\n"
	plain := header + nativeRow("A", "0") + nativeRow("A", "1") + nativeRow("B", "0") + "B,W,fal"
	want := []string{"A×2 <nil>", "B×1 trace: read row: boom"}
	for _, size := range fuzzBlockSizes {
		if got := nextAll(t, failAfter(plain, boom), size).strings(); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("block %d: Next gives %q, want %q", size, got, want)
		}
	}

	// A quote early on, then enough rows that blocks are still in flight
	// when the merge reaches it: every block size gives what encoding/csv
	// alone gives.
	quoted := header + nativeRow("A", "0") + nativeRow(`"B"`, "0")
	for h := 1; h < 40; h++ {
		quoted += nativeRow("B", strconv.Itoa(h))
	}
	quoted += "C,W,fal"
	ref := nextAll(t, failAfter(quoted, boom), 1)
	if s := ref.String(); !strings.Contains(s, "boom") {
		t.Fatalf("encoding/csv alone gives %s, want the read error", s)
	}
	for _, size := range fuzzBlockSizes {
		if got := nextAll(t, failAfter(quoted, boom), size); !got.equal(ref) {
			t.Errorf("block %d: Next gives %s, encoding/csv alone gives %s", size, got, ref)
		}
	}
}

// TestReaderGoroutinesStop checks that no decode goroutine outlives the
// end of the stream, an error, a hand-off to encoding/csv, a header
// error or Close.
func TestReaderGoroutinesStop(t *testing.T) {
	data := string(gendataCSV(t, 8, 4))
	lines := strings.SplitAfter(data, "\n")
	mid := len(lines) / 2
	badRow := strings.Join(lines[:mid], "") + "X,W,false,-1,zz" + strings.Repeat(",1", 2*smart.NumAttrs) + "\n" +
		strings.Join(lines[mid:], "")
	quoted := strings.Join(lines[:mid], "") + `"X",W,false,-1,0` + strings.Repeat(",1", 2*smart.NumAttrs) + "\n" +
		strings.Join(lines[mid:], "")
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"EOF", func(t *testing.T) {
			r, err := NewReader(strings.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.ReadAll(); err != nil {
				t.Fatal(err)
			}
		}},
		{"error", func(t *testing.T) {
			r, err := NewReader(strings.NewReader(badRow))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.ReadAll(); err == nil {
				t.Fatal("bad row accepted")
			}
		}},
		{"hand-off", func(t *testing.T) {
			r, err := NewReader(strings.NewReader(quoted))
			if err != nil {
				t.Fatal(err)
			}
			for r.cr == nil {
				if _, err := r.Next(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"header", func(t *testing.T) {
			if _, err := NewReader(strings.NewReader("serial,family\n" + data)); err == nil {
				t.Fatal("bad header accepted")
			}
		}},
		{"Close", func(t *testing.T) {
			r, err := NewReader(strings.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
			r.Close()
			if _, err := r.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("Next after Close: %v, want io.EOF", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c.run(t)
			// A goroutine that has called wg.Done may take a moment to
			// leave the count.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d before the reader", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestPipelineStopKeepsInFlight stops a pipeline while a block that met a
// read error is still in flight: stop must hand back every byte after
// the merged block, the partial line the error cut included, and the
// error, for encoding/csv to meet at its place in the stream.
func TestPipelineStopKeepsInFlight(t *testing.T) {
	boom := errors.New("boom")
	data := strings.Repeat("x,y\n", 100) + "partial"
	p := startPipeline(failAfter(data, boom), 256, 1)
	b := p.next(nil)
	for len(p.order) == 0 {
		runtime.Gosched() // wait for the producer to queue the last block
	}
	var rest []byte
	err := p.stop(&rest)
	if err != boom {
		t.Errorf("stop returned %v, want the read error", err)
	}
	if got, want := string(rest), data[len(b.data):]; got != want {
		t.Errorf("stop handed back %q, want %q", got, want)
	}
}
