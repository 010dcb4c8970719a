package serve

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"hddcart"
	"hddcart/internal/smart"
	"hddcart/internal/trace"
)

// ingestRecord is one JSON-lines ingest row. JSON cannot carry NaN, so
// streams with corrupt (non-finite) values use the CSV content type,
// whose float parser accepts them; the monitor's degradation policy
// then repairs or drops them with accounting, same as any other path.
type ingestRecord struct {
	Serial     string    `json:"serial"`
	Hour       int       `json:"hour"`
	Normalized []float64 `json:"normalized"`
	Raw        []float64 `json:"raw"`
}

// IngestSummary is the /ingest response body: exact accounting of what
// happened to every line of the batch.
type IngestSummary struct {
	// Accepted counts records queued to their shards.
	Accepted int `json:"accepted"`
	// Rejected counts records refused under the RejectNew policy
	// (status 429 — retry with backoff).
	Rejected int `json:"rejected"`
	// ParseErrors counts malformed lines, skipped with per-line
	// accounting rather than aborting the batch.
	ParseErrors int `json:"parse_errors"`
	// Errors holds the first few line-pinned parse error messages.
	Errors []string `json:"errors,omitempty"`
}

// maxReportedErrors bounds the error detail echoed in a summary.
const maxReportedErrors = 5

// maxLineBytes bounds one JSON-lines ingest row.
const maxLineBytes = 1 << 20

// maxIngestBytes bounds one /ingest body. A longer body is cut there and
// answered 413, with the lines before the cut accounted as usual.
const maxIngestBytes = 32 << 20

// Handler returns the service's HTTP API:
//
//	POST /ingest    ingest a batch: JSON lines (one ingestRecord per
//	                line) by default, the native trace CSV format when
//	                Content-Type is text/csv. Responds with an
//	                IngestSummary; 429 when any record was rejected,
//	                413 when the body exceeds maxIngestBytes.
//	GET  /metrics   per-shard and fleet-total Metrics as JSON.
//	GET  /healthz   liveness plus shard/uptime basics.
//	GET  /warnings  drain the merged warning feed (destructive read,
//	                deterministic (hour, serial) order).
//	POST /snapshot  write a state snapshot now.
//	POST /resolve   clear a drive's warning/quarantine (?serial=...).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /warnings", s.handleWarnings)
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /resolve", s.handleResolve)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server is shut down"})
		return
	}
	var sum IngestSummary
	body := http.MaxBytesReader(w, r.Body, maxIngestBytes)
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		err = s.ingestCSV(body, &sum)
	} else {
		err = ingestJSONL(body, &sum, s.Ingest)
	}
	var tooLarge *http.MaxBytesError
	status := http.StatusOK
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case sum.Rejected > 0:
		status = http.StatusTooManyRequests
	case sum.Accepted == 0 && sum.ParseErrors > 0:
		status = http.StatusBadRequest
	}
	writeJSON(w, status, &sum)
}

// ingestJSONL hands each record of a JSON-lines batch to ingest,
// skipping malformed lines with per-line accounting. An over-long line
// is one such line. It returns the read error that cut the body short,
// if any, which is also accounted as a parse error of the line it cut.
// The handler passes Server.Ingest; tests pass a recorder.
func ingestJSONL(body io.Reader, sum *IngestSummary, ingest func(string, smart.Record) Disposition) error {
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	var ls lineSplitter
	sc := bufio.NewScanner(body)
	sc.Buffer(*buf, maxLineBytes)
	sc.Split(ls.split)
	var rec smart.Record
	line := 0
	for sc.Scan() {
		line++
		if ls.unterminated && sc.Err() != nil {
			// A read error cut this line short; it is accounted below.
			line--
			break
		}
		if ls.tooLong {
			sum.parseError(line, errLineTooLong.Error())
			continue
		}
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		serial, err := decodeIngestLine(raw, &rec)
		if err != nil {
			sum.parseError(line, err.Error())
			continue
		}
		sum.count(ingest(serial, rec))
	}
	if err := sc.Err(); err != nil {
		sum.parseError(line+1, err.Error())
		return err
	}
	return nil
}

// record validates and converts one JSON row.
func (ir *ingestRecord) record() (smart.Record, error) {
	var rec smart.Record
	if ir.Serial == "" {
		return rec, errors.New("missing serial")
	}
	if len(ir.Normalized) != smart.NumAttrs || len(ir.Raw) != smart.NumAttrs {
		return rec, fmt.Errorf("want %d normalized and %d raw values, got %d and %d",
			smart.NumAttrs, smart.NumAttrs, len(ir.Normalized), len(ir.Raw))
	}
	rec.Hour = ir.Hour
	copy(rec.Normalized[:], ir.Normalized)
	copy(rec.Raw[:], ir.Raw)
	return rec, nil
}

// ingestCSV routes a batch in the native trace CSV layout (header row
// required). Unlike trace.Reader — which is strict because its inputs
// are machine-generated files — the ingest path keeps going past
// malformed rows: a fleet's collectors must not lose a whole batch to
// one bad line. It returns the error that stopped it early, if any.
func (s *Server) ingestCSV(body io.Reader, sum *IngestSummary) error {
	cr := csv.NewReader(body)
	cr.FieldsPerRecord = len(trace.Header())
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		sum.parseError(1, "read header: "+err.Error())
		return err
	}
	want := trace.Header()
	for i := range want {
		if header[i] != want[i] {
			sum.parseError(1, fmt.Sprintf("header column %d is %q, want %q", i, header[i], want[i]))
			return nil
		}
	}
	line := 1
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return nil
		}
		line++
		if err != nil {
			sum.parseError(line, err.Error())
			var rowErr *csv.ParseError
			if row == nil || !errors.As(err, &rowErr) {
				// A read error, or a row the reader could not recover:
				// later offsets are unreliable, so stop rather than
				// misattribute lines.
				return err
			}
			continue
		}
		meta, rec, err := trace.ParseRow(row, line)
		if err != nil {
			sum.parseError(line, err.Error())
			continue
		}
		sum.count(s.Ingest(meta.Serial, rec))
	}
}

// count tallies one Ingest disposition.
func (sum *IngestSummary) count(d Disposition) {
	switch d {
	case Accepted:
		sum.Accepted++
	default:
		sum.Rejected++
	}
}

// parseError tallies one malformed line, keeping the first few messages.
func (sum *IngestSummary) parseError(line int, msg string) {
	sum.ParseErrors++
	if len(sum.Errors) < maxReportedErrors {
		sum.Errors = append(sum.Errors, fmt.Sprintf("line %d: %s", line, msg))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.closed.Load() {
		status = "shutting down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status": status,
		"shards": len(s.shards),
		"policy": s.cfg.Policy.String(),
	})
}

func (s *Server) handleWarnings(w http.ResponseWriter, r *http.Request) {
	ws := s.Warnings()
	if ws == nil {
		ws = []hddcart.MonitorWarning{}
	}
	writeJSON(w, http.StatusOK, ws)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.SnapshotNow(); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "snapshot written"})
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	serial := r.URL.Query().Get("serial")
	if serial == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing serial parameter"})
		return
	}
	s.Resolve(serial)
	writeJSON(w, http.StatusOK, map[string]string{"status": "resolved", "serial": serial})
}
