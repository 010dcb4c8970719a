package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// benchDrives is the service bench fleet: the same 1M-drive scale as
// the sweep engine's fleet bench, fed through the ingest path at hourly
// cadence.
const benchDrives = 1_000_000

// buildBenchSerials pre-builds the fleet's serial strings so the timed
// region measures ingest, not fmt.
func buildBenchSerials(n int) []string {
	serials := make([]string, n)
	for d := range serials {
		serials[d] = fmt.Sprintf("bench-%07d", d)
	}
	return serials
}

// benchValue returns drive d's health-degree value: ~1% of the fleet
// deteriorates, spread deterministically, so every tick raises alarms
// and the feed/queue machinery is exercised, not idle.
func benchValue(d int) float64 {
	if d%128 == 0 {
		return -0.8
	}
	return 0.8
}

// BenchmarkServeIngest measures the service's sustained fleet
// throughput on the direct (in-process) ingest path: each iteration is
// one hourly tick of a 1M-drive fleet — route, queue, observe, detect —
// followed by a drain and a feed read, so the reported time covers
// ingest-to-alarm-visible. One untimed tick first inserts the fleet into
// the monitors, so every timed tick is a warm one. drives/s is the
// sustained ingest rate; alarm-ms is the post-tick latency until the
// merged feed is consistent (queue flush + drain + merge).
func BenchmarkServeIngest(b *testing.B) {
	serials := buildBenchSerials(benchDrives)
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, QueueDepth: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var rec smart.Record
	idx, _ := smart.Index(smart.RawReadErrorRate)
	var drainNanos int64
	alarms := 0
	tick := func(hour int) {
		rec.Hour = hour
		for d, serial := range serials {
			rec.Normalized[idx] = benchValue(d) + testScoreOffset
			for s.Ingest(serial, rec) == Rejected {
				runtime.Gosched() // backpressure: let the shards catch up
			}
		}
		drainStart := b.Elapsed()
		s.Drain()
		alarms += len(s.Warnings())
		drainNanos += int64(b.Elapsed() - drainStart)
	}
	tick(0)
	drainNanos, alarms = 0, 0
	b.ResetTimer()
	for hour := 1; hour <= b.N; hour++ {
		tick(hour)
	}
	b.StopTimer()
	// The 3-vote window cannot trip before the third tick, the warm-up
	// included; after that every deteriorating drive must have alarmed
	// exactly once.
	if b.N >= 2 && alarms == 0 {
		b.Fatal("no alarms after a full window; the fixture is supposed to deteriorate drives")
	}
	b.ReportMetric(float64(benchDrives)*float64(b.N)/b.Elapsed().Seconds(), "drives/s")
	b.ReportMetric(float64(drainNanos)/float64(b.N)/1e6, "alarm-ms")
}

// BenchmarkServeIngestHTTP measures the HTTP ingest path end to end
// (request parse → route → observe) on a 50k-drive tick of JSON-lines
// batches, the wire format collectors actually post. Body rendering is
// excluded from the timed region.
func BenchmarkServeIngestHTTP(b *testing.B) {
	const drives = 50_000
	const batch = 5_000 // drives per POST, a realistic collector page
	serials := buildBenchSerials(drives)
	idx, _ := smart.Index(smart.RawReadErrorRate)
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, QueueDepth: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	renderTick := func(hour int) [][]byte {
		var bodies [][]byte
		var buf []byte
		zeros := make([]float64, smart.NumAttrs)
		norm := make([]float64, smart.NumAttrs)
		for d, serial := range serials {
			norm[idx] = benchValue(d) + testScoreOffset
			line, err := json.Marshal(ingestRecord{Serial: serial, Hour: hour, Normalized: norm, Raw: zeros})
			if err != nil {
				b.Fatal(err)
			}
			buf = append(buf, line...)
			buf = append(buf, '\n')
			if (d+1)%batch == 0 {
				bodies = append(bodies, buf)
				buf = nil
			}
		}
		if len(buf) > 0 {
			bodies = append(bodies, buf)
		}
		return bodies
	}
	b.ResetTimer()
	for tick := 0; tick < b.N; tick++ {
		b.StopTimer()
		bodies := renderTick(tick)
		b.StartTimer()
		for _, body := range bodies {
			req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK && rr.Code != http.StatusTooManyRequests {
				b.Fatalf("ingest status %d: %s", rr.Code, rr.Body.String())
			}
		}
		s.Drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(drives)*float64(b.N)/b.Elapsed().Seconds(), "drives/s")
}

// BenchmarkDecodeIngestLine measures one JSON-lines ingest row through
// the decoder, on simulated SMART traces rendered as the repository
// benchmark's load generator renders them: "fast" is decodeIngestLine,
// "stdlib" the json.Unmarshal + record() path it falls back to.
func BenchmarkDecodeIngestLine(b *testing.B) {
	fleet, err := simulate.New(simulate.Config{Seed: 1, GoodScale: 1e-4, FailedScale: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	var lines [][]byte
	for i, d := range fleet.Drives() {
		trace := fleet.Trace(i)
		for j := range trace {
			lines = append(lines, renderLine(d.Serial, &trace[j]))
		}
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte, *smart.Record) error
	}{
		{"fast", func(l []byte, rec *smart.Record) error {
			_, err := decodeIngestLine(l, rec)
			return err
		}},
		{"stdlib", func(l []byte, rec *smart.Record) (err error) {
			_, *rec, err = stdlibLine(l)
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var rec smart.Record
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.decode(lines[i%len(lines)], &rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
