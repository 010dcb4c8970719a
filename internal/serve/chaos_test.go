// Chaos suite for the ingest service: the faultinject injectors drive
// the HTTP/direct ingest paths through collector-grade telemetry faults
// and assert the degradation contract — severity 0 is bit-identical to
// the clean run, higher severities degrade with exact accounting and
// bounded memory, and a full queue is counted, never silently dropped.
package serve

import (
	"math/rand"
	"net/http"
	"testing"

	"hddcart/internal/faultinject"
	"hddcart/internal/smart"
)

// chaosSeverities mirrors the faultinject chaos ladder; -short (the CI
// chaos-smoke job) keeps the cheap rungs.
func chaosSeverities(t *testing.T) []float64 {
	if testing.Short() {
		return []float64{0, 0.01}
	}
	return []float64{0, 0.01, 0.1, 0.5}
}

// injectFleet returns a corrupted copy of the fleet, each drive under
// its own deterministic stream.
func injectFleet(fleet []driveStream, inj faultinject.Injector, severity float64) []driveStream {
	out := make([]driveStream, len(fleet))
	for i, d := range fleet {
		rng := rand.New(rand.NewSource(faultinject.SeedFor(7, inj.Name, d.serial)))
		out[i] = driveStream{serial: d.serial, recs: inj.Apply(rng, d.recs, severity)}
	}
	return out
}

// runServer feeds a fleet through a fresh server and returns the final
// fleet-wide totals plus the drained feed length.
func runServer(t *testing.T, fleet []driveStream) (ShardMetrics, int) {
	t.Helper()
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, QueueDepth: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, d := range fleet {
		for _, rec := range d.recs {
			s.Ingest(d.serial, rec)
		}
	}
	s.Drain()
	ws := s.Warnings()
	return s.Metrics().Totals, len(ws)
}

// TestServeChaosInjectors runs every record injector over the ingest
// service. Severity 0 must be the identity — warning feed and monitor
// totals bit-identical to the clean run; at higher severities the run
// must complete with the accounting closed: every accepted record is
// observed, every observation is classified.
func TestServeChaosInjectors(t *testing.T) {
	fleet := testFleet(18, 20)
	baseTotals, baseWarnings := runServer(t, fleet)
	if baseWarnings == 0 {
		t.Fatal("clean fixture raised no warnings")
	}
	for _, inj := range faultinject.RecordInjectors() {
		t.Run(inj.Name, func(t *testing.T) {
			for _, sev := range chaosSeverities(t) {
				corrupted := injectFleet(fleet, inj, sev)
				totals, warnings := runServer(t, corrupted)
				if sev == 0 {
					if totals.Monitor != baseTotals.Monitor || warnings != baseWarnings {
						t.Errorf("severity 0 is not the identity: totals %+v (base %+v), %d warnings (base %d)",
							totals.Monitor, baseTotals.Monitor, warnings, baseWarnings)
					}
					continue
				}
				// Degraded runs must keep exact books: Observe classified
				// every accepted record, and nothing was lost unaccounted.
				if totals.Rejected != 0 || totals.Shed != 0 || totals.Pending != 0 {
					t.Errorf("severity %v: lossless run recorded rejected=%d shed=%d pending=%d",
						sev, totals.Rejected, totals.Shed, totals.Pending)
				}
				if int64(totals.Monitor.Observed) != totals.Accepted {
					t.Errorf("severity %v: observed %d of %d accepted records",
						sev, totals.Monitor.Observed, totals.Accepted)
				}
				m := totals.Monitor
				classified := m.Scored + m.DroppedOutOfOrder + m.DroppedDuplicate +
					m.DroppedInvalid + m.DroppedQuarantined
				if classified > m.Observed {
					t.Errorf("severity %v: classification %d exceeds observed %d", sev, classified, m.Observed)
				}
			}
		})
	}
}

// TestServeChaosNaNOverCSV drives non-finite values through the HTTP
// CSV path (JSON cannot carry NaN): the rows must parse, and the
// monitor's repair/drop accounting — not a crash or a silent accept —
// must absorb them.
func TestServeChaosNaNOverCSV(t *testing.T) {
	fleet := testFleet(8, 16)
	corrupted := injectFleet(fleet, faultinject.CorruptNaN(), 0.5)
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rr := doRequest(s.Handler(), "POST", "/ingest", "text/csv", csvBody(t, corrupted))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	sum := decodeSummary(t, rr)
	if want := 8 * 16; sum.Accepted != want || sum.ParseErrors != 0 {
		t.Fatalf("summary %+v, want %d accepted (NaN rows must parse)", sum, want)
	}
	s.Drain()
	m := s.Metrics().Totals.Monitor
	if m.Repaired+m.DroppedInvalid+m.QuarantineEvents == 0 {
		t.Error("half the values are NaN yet the degradation policy saw nothing")
	}
	if m.Observed != 8*16 {
		t.Errorf("observed %d, want %d", m.Observed, 8*16)
	}
}

// TestServeBackpressureAccounting pins the full-queue contract for both
// policies with parked consumers: memory stays bounded at QueueDepth
// and every record is accounted as accepted, rejected or shed — exact
// counts, not estimates.
func TestServeBackpressureAccounting(t *testing.T) {
	const depth, sent = 8, 20
	t.Run("reject", func(t *testing.T) {
		s, err := New(Config{NewMonitor: newTestMonitor, Shards: 1, QueueDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		release, wait := parkShards(s)
		var accepted, rejected int
		for h := 0; h < sent; h++ {
			switch s.Ingest("drive-0000", recAt(h, 0.5)) {
			case Accepted:
				accepted++
			case Rejected:
				rejected++
			}
		}
		if accepted != depth || rejected != sent-depth {
			t.Errorf("accepted %d rejected %d, want %d/%d", accepted, rejected, depth, sent-depth)
		}
		close(release)
		wait()
		s.Drain()
		totals := s.Metrics().Totals
		if totals.Accepted != depth || totals.Rejected != sent-depth || totals.Shed != 0 {
			t.Errorf("metrics %+v disagree with dispositions", totals)
		}
		if totals.Monitor.Observed != depth {
			t.Errorf("observed %d, want the %d accepted records", totals.Monitor.Observed, depth)
		}
		// The oldest records survived: hours 0..depth-1 arrive in order,
		// so none were dropped as out-of-order.
		if totals.Monitor.DroppedOutOfOrder != 0 {
			t.Errorf("reject policy reordered the stream: %+v", totals.Monitor)
		}
	})
	t.Run("shed", func(t *testing.T) {
		s, err := New(Config{NewMonitor: newTestMonitor, Shards: 1, QueueDepth: depth, Policy: ShedOldest})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		release, wait := parkShards(s)
		for h := 0; h < sent; h++ {
			if got := s.Ingest("drive-0000", recAt(h, 0.5)); got != Accepted {
				t.Fatalf("shed policy refused record %d: %v", h, got)
			}
		}
		close(release)
		wait()
		s.Drain()
		totals := s.Metrics().Totals
		if totals.Accepted != sent || totals.Shed != sent-depth || totals.Rejected != 0 {
			t.Errorf("metrics %+v, want %d accepted / %d shed", totals, sent, sent-depth)
		}
		// Shedding evicts oldest-first, so what reaches the monitor is
		// the freshest depth-long suffix — still in order.
		if totals.Monitor.Observed != depth || totals.Monitor.DroppedOutOfOrder != 0 {
			t.Errorf("monitor saw %+v, want the freshest %d in order", totals.Monitor, depth)
		}
	})
}

// TestServeBoundedMemory checks a sustained overload cannot grow the
// queues past their bound (the backpressure side of "bounded memory":
// queue fill never exceeds QueueDepth on any shard).
func TestServeBoundedMemory(t *testing.T) {
	const depth = 16
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, QueueDepth: depth, Policy: ShedOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, wait := parkShards(s)
	var rec smart.Record
	for h := 0; h < 50*depth; h++ {
		rec = recAt(h, 0.5)
		s.Ingest("drive-0000", rec)
		s.Ingest("drive-0001", rec)
		for _, sh := range s.shards {
			if fill := sh.queued(); fill > depth {
				t.Fatalf("shard %d queue fill %d exceeds bound %d", sh.id, fill, depth)
			}
		}
	}
	close(release)
	wait()
}
