package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hddcart"
	"hddcart/internal/smart"
	"hddcart/internal/trace"
)

// jsonlBody renders streams as a JSON-lines ingest batch.
func jsonlBody(t *testing.T, fleet []driveStream) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	for _, d := range fleet {
		for _, rec := range d.recs {
			line, err := json.Marshal(ingestRecord{
				Serial:     d.serial,
				Hour:       rec.Hour,
				Normalized: rec.Normalized[:],
				Raw:        rec.Raw[:],
			})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	return &buf
}

// csvBody renders streams in the native trace CSV layout.
func csvBody(t *testing.T, fleet []driveStream) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, d := range fleet {
		meta := trace.DriveMeta{Serial: d.serial, Family: "test", FailHour: -1}
		if err := w.WriteDrive(meta, d.recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func doRequest(h http.Handler, method, target, contentType string, body *bytes.Buffer) *httptest.ResponseRecorder {
	if body == nil {
		body = &bytes.Buffer{}
	}
	req := httptest.NewRequest(method, target, body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func decodeSummary(t *testing.T, rr *httptest.ResponseRecorder) IngestSummary {
	t.Helper()
	var sum IngestSummary
	if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil {
		t.Fatalf("bad summary %q: %v", rr.Body.String(), err)
	}
	return sum
}

// TestHTTPEquivalence checks the HTTP paths are observationally
// identical to direct Ingest: same fleet in, same warning feed and
// monitor totals out — for both the JSONL and the CSV content type.
func TestHTTPEquivalence(t *testing.T) {
	fleet := testFleet(24, 20)
	direct, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for _, d := range fleet {
		for _, rec := range d.recs {
			direct.Ingest(d.serial, rec)
		}
	}
	direct.Drain()
	wantWs := direct.Warnings()
	wantStats := direct.Metrics().Totals.Monitor

	for _, tc := range []struct {
		name, contentType string
		body              func() *bytes.Buffer
	}{
		{"jsonl", "application/jsonl", func() *bytes.Buffer { return jsonlBody(t, fleet) }},
		{"csv", "text/csv", func() *bytes.Buffer { return csvBody(t, fleet) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, QueueDepth: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			rr := doRequest(h, "POST", "/ingest", tc.contentType, tc.body())
			if rr.Code != http.StatusOK {
				t.Fatalf("ingest status %d: %s", rr.Code, rr.Body.String())
			}
			sum := decodeSummary(t, rr)
			if want := len(fleet) * len(fleet[0].recs); sum.Accepted != want || sum.ParseErrors != 0 {
				t.Fatalf("summary %+v, want %d accepted", sum, want)
			}
			s.Drain()
			rr = doRequest(h, "GET", "/warnings", "", nil)
			var ws []hddcart.MonitorWarning
			if err := json.Unmarshal(rr.Body.Bytes(), &ws); err != nil {
				t.Fatal(err)
			}
			if len(ws) != len(wantWs) {
				t.Fatalf("%d warnings over HTTP, %d direct", len(ws), len(wantWs))
			}
			for i := range ws {
				if ws[i] != wantWs[i] {
					t.Errorf("warning %d: HTTP %+v, direct %+v", i, ws[i], wantWs[i])
				}
			}
			rr = doRequest(h, "GET", "/metrics", "", nil)
			var m Metrics
			if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
				t.Fatal(err)
			}
			if m.Totals.Monitor != wantStats {
				t.Errorf("HTTP totals %+v, direct %+v", m.Totals.Monitor, wantStats)
			}
		})
	}
}

// TestHTTPIngestPartialBatch checks lenient per-line accounting: bad
// lines are counted and pinned, good lines still land.
func TestHTTPIngestPartialBatch(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	good, _ := json.Marshal(ingestRecord{
		Serial:     "drive-0000",
		Hour:       0,
		Normalized: make([]float64, smart.NumAttrs),
		Raw:        make([]float64, smart.NumAttrs),
	})
	body := bytes.NewBufferString("{broken json\n")
	body.Write(good)
	body.WriteString("\n{\"serial\":\"\",\"hour\":1}\n")
	rr := doRequest(h, "POST", "/ingest", "", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	sum := decodeSummary(t, rr)
	if sum.Accepted != 1 || sum.ParseErrors != 2 {
		t.Errorf("summary %+v, want 1 accepted / 2 parse errors", sum)
	}
	if len(sum.Errors) != 2 || !strings.HasPrefix(sum.Errors[0], "line 1:") || !strings.HasPrefix(sum.Errors[1], "line 3:") {
		t.Errorf("errors not line-pinned: %v", sum.Errors)
	}

	// An all-bad batch is a client error.
	rr = doRequest(h, "POST", "/ingest", "", bytes.NewBufferString("nope\n"))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("all-bad batch status %d, want 400", rr.Code)
	}
	// So is a CSV batch with a wrong header.
	rr = doRequest(h, "POST", "/ingest", "text/csv", bytes.NewBufferString("a,b,c\n"))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("bad CSV header status %d, want 400", rr.Code)
	}
}

// goodLine renders one valid JSON-lines record of drive-0000.
func goodLine(t *testing.T, hour int) []byte {
	t.Helper()
	rec := recAt(hour, 0.5)
	line, err := json.Marshal(ingestRecord{Serial: "drive-0000", Hour: hour, Normalized: rec.Normalized[:], Raw: rec.Raw[:]})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// TestHTTPIngestOverlongLine checks a line past maxLineBytes is one
// line-pinned parse error and the lines after it still land.
func TestHTTPIngestOverlongLine(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := bytes.NewBuffer(goodLine(t, 0))
	body.WriteString(`{"serial":"` + strings.Repeat("x", 2<<20) + "\"}\n")
	for h := 1; h <= 3; h++ {
		body.Write(goodLine(t, h))
	}
	rr := doRequest(s.Handler(), "POST", "/ingest", "", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	sum := decodeSummary(t, rr)
	if sum.Accepted != 4 || sum.ParseErrors != 1 {
		t.Errorf("summary %+v, want 4 accepted / 1 parse error", sum)
	}
	if len(sum.Errors) != 1 || !strings.HasPrefix(sum.Errors[0], "line 2:") {
		t.Errorf("errors not line-pinned: %v", sum.Errors)
	}
}

// repeat is an endless stream of one string over and over.
type repeat struct {
	s   string
	off int
}

func (r *repeat) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.s[r.off:])
		n += c
		r.off = (r.off + c) % len(r.s)
	}
	return n, nil
}

// TestHTTPIngestBodyLimit checks a body past maxIngestBytes is cut there
// and answered 413, with the lines before the cut accounted.
func TestHTTPIngestBodyLimit(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var head bytes.Buffer
	for h := 0; h < 3; h++ {
		head.Write(goodLine(t, h))
	}
	body := io.MultiReader(&head, io.LimitReader(&repeat{s: "x"}, maxIngestBytes), bytes.NewReader(goodLine(t, 3)))
	req := httptest.NewRequest("POST", "/ingest", body)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rr.Code, rr.Body.String())
	}
	sum := decodeSummary(t, rr)
	if sum.Accepted != 3 || sum.ParseErrors != 1 {
		t.Errorf("summary %+v, want 3 accepted / 1 parse error", sum)
	}
	if len(sum.Errors) != 1 || !strings.HasPrefix(sum.Errors[0], "line 4:") || !strings.Contains(sum.Errors[0], "too large") {
		t.Errorf("errors %v, want the cut pinned to line 4", sum.Errors)
	}
}

// TestHTTPIngestCSVBodyLimit checks the body limit on the CSV path: the
// cut is a read error that ends the batch with 413, not a bad row to
// skip, and every row before it is accounted.
func TestHTTPIngestCSVBodyLimit(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	head := csvBody(t, testFleet(1, 3))
	// Each filler row is one field, a row-level error the batch skips.
	const rowLen = 1 << 10
	fillerRows := (maxIngestBytes - head.Len()) / rowLen
	body := io.MultiReader(head, &repeat{s: strings.Repeat("x", rowLen-1) + "\n"})
	req := httptest.NewRequest("POST", "/ingest", body)
	req.Header.Set("Content-Type", "text/csv")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", rr.Code, rr.Body.String())
	}
	sum := decodeSummary(t, rr)
	if sum.Accepted != 3 || sum.ParseErrors != fillerRows+1 {
		t.Errorf("summary %+v, want 3 accepted / %d parse errors (the filler rows and the cut)", sum, fillerRows+1)
	}
}

// TestHTTPBackpressure checks a full queue under RejectNew surfaces as
// 429 with exact per-record accounting.
func TestHTTPBackpressure(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, wait := parkShards(s)
	var fleet []driveStream
	for h := 0; h < 10; h++ {
		fleet = append(fleet, driveStream{serial: "drive-0000", recs: []smart.Record{recAt(h, 0.5)}})
	}
	rr := doRequest(s.Handler(), "POST", "/ingest", "", jsonlBody(t, fleet))
	if rr.Code != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429", rr.Code)
	}
	sum := decodeSummary(t, rr)
	if sum.Accepted != 4 || sum.Rejected != 6 {
		t.Errorf("summary %+v, want 4 accepted / 6 rejected", sum)
	}
	close(release)
	wait()
}

// TestHTTPOperations covers the small operational endpoints.
func TestHTTPOperations(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rr := doRequest(h, "GET", "/healthz", "", nil)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"ok"`) {
		t.Errorf("healthz: %d %s", rr.Code, rr.Body.String())
	}
	rr = doRequest(h, "GET", "/warnings", "", nil)
	if strings.TrimSpace(rr.Body.String()) != "[]" {
		t.Errorf("empty feed should drain as [], got %s", rr.Body.String())
	}
	rr = doRequest(h, "POST", "/resolve", "", nil)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("resolve without serial: %d", rr.Code)
	}
	rr = doRequest(h, "POST", "/resolve?serial=drive-0000", "", nil)
	if rr.Code != http.StatusOK {
		t.Errorf("resolve: %d %s", rr.Code, rr.Body.String())
	}
	rr = doRequest(h, "POST", "/snapshot", "", nil)
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("snapshot without a path should fail, got %d", rr.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rr = doRequest(h, "GET", "/healthz", "", nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after close: %d, want 503", rr.Code)
	}
	rr = doRequest(h, "POST", "/ingest", "", bytes.NewBufferString("{}\n"))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("ingest after close: %d, want 503", rr.Code)
	}
}

// TestHTTPMethodDiscipline checks wrong-method requests are refused by
// the mux patterns.
func TestHTTPMethodDiscipline(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct{ method, target string }{
		{"GET", "/ingest"},
		{"POST", "/metrics"},
		{"DELETE", "/warnings"},
	} {
		rr := doRequest(h, tc.method, tc.target, "", nil)
		if rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.target, rr.Code)
		}
	}
}

// TestHTTPMetricsShape pins the metrics wire format a scraper depends
// on: one row per shard, a totals row with shard −1, policy string and
// snapshot fields present.
func TestHTTPMetricsShape(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 3, Policy: ShedOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rr := doRequest(s.Handler(), "GET", "/metrics", "", nil)
	var m struct {
		Shards []map[string]any `json:"shards"`
		Totals map[string]any   `json:"totals"`
		Policy string           `json:"policy"`
		Age    float64          `json:"snapshot_age_seconds"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if len(m.Shards) != 3 || m.Policy != "shed" || m.Age != -1 {
		t.Errorf("metrics shape: %d shards, policy %q, age %v", len(m.Shards), m.Policy, m.Age)
	}
	for i, row := range m.Shards {
		if int(row["shard"].(float64)) != i {
			t.Errorf("shard row %d labeled %v", i, row["shard"])
		}
		if _, ok := row["queue_cap"]; !ok {
			t.Errorf("shard row %d missing queue_cap", i)
		}
	}
	if int(m.Totals["shard"].(float64)) != -1 {
		t.Errorf("totals row labeled %v, want -1", m.Totals["shard"])
	}
}
