package serve

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hddcart"
	"hddcart/internal/smart"
)

// testScoreOffset shifts test scores into the valid normalized SMART
// domain [0, 255] (same idiom as the root monitor tests): streams speak
// in health degrees (±1), records carry score+offset, and the model
// subtracts the offset again.
const testScoreOffset = 100

// offsetModel maps the first feature back to the test's score scale.
type offsetModel struct{}

func (offsetModel) Predict(x []float64) float64 { return x[0] - testScoreOffset }

// testMonitorConfig is the per-shard monitor every test server uses:
// single feature, 3-sample voting window.
func testMonitorConfig() hddcart.MonitorConfig {
	return hddcart.MonitorConfig{
		Features: hddcart.FeatureSet{{Attr: smart.RawReadErrorRate, Kind: smart.Normalized}},
		Model:    offsetModel{},
		Voters:   3,
	}
}

func newTestMonitor() (*hddcart.Monitor, error) {
	return hddcart.NewMonitor(testMonitorConfig())
}

// recAt builds a record whose score (through offsetModel) is v.
func recAt(hour int, v float64) smart.Record {
	var r smart.Record
	r.Hour = hour
	i, _ := smart.Index(smart.RawReadErrorRate)
	r.Normalized[i] = v + testScoreOffset
	return r
}

// driveStream is one drive's chronological record stream.
type driveStream struct {
	serial string
	recs   []smart.Record
}

// testFleet builds a deterministic synthetic fleet: every third drive
// deteriorates (score −0.8 from its personal fail hour), the rest stay
// healthy (+0.8).
func testFleet(drives, hours int) []driveStream {
	fleet := make([]driveStream, drives)
	for d := range fleet {
		serial := fmt.Sprintf("drive-%04d", d)
		recs := make([]smart.Record, hours)
		failFrom := hours + 1
		if d%3 == 0 {
			failFrom = 4 + d%7
		}
		for h := 0; h < hours; h++ {
			v := 0.8
			if h >= failFrom {
				v = -0.8
			}
			recs[h] = recAt(h, v)
		}
		fleet[d] = driveStream{serial: serial, recs: recs}
	}
	return fleet
}

func TestConfigValidate(t *testing.T) {
	ok := Config{NewMonitor: newTestMonitor}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{NewMonitor: newTestMonitor, Shards: -1},
		{NewMonitor: newTestMonitor, QueueDepth: -1},
		{NewMonitor: newTestMonitor, Policy: Policy(42)},
		{NewMonitor: newTestMonitor, SnapshotEvery: -1},
		{NewMonitor: newTestMonitor, SnapshotEvery: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"reject", RejectNew}, {"shed", ShedOldest}} {
		p, err := ParsePolicy(tc.in)
		if err != nil || p != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, p, err)
		}
		if p.String() != tc.in {
			t.Errorf("Policy(%v).String() = %q, want %q", p, p.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("drop"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestShardOf checks the routing hash: stable, in-range, and spreading.
func TestShardOf(t *testing.T) {
	counts := make([]int, 16)
	for d := 0; d < 1024; d++ {
		serial := fmt.Sprintf("drive-%04d", d)
		sh := ShardOf(serial, 16)
		if sh != ShardOf(serial, 16) {
			t.Fatalf("ShardOf(%q) unstable", serial)
		}
		if sh < 0 || sh >= 16 {
			t.Fatalf("ShardOf(%q, 16) = %d out of range", serial, sh)
		}
		if ShardOf(serial, 1) != 0 {
			t.Fatalf("ShardOf(%q, 1) != 0", serial)
		}
		counts[sh]++
	}
	// splitmix64 whitening should spread 1024 sequential serials well
	// clear of collapse onto few shards (expected 64 per shard).
	for sh, n := range counts {
		if n == 0 {
			t.Errorf("shard %d received no drives", sh)
		}
		if n > 4*1024/16 {
			t.Errorf("shard %d received %d of 1024 drives", sh, n)
		}
	}
}

// runFleet feeds the fleet through a server at the given client
// concurrency (whole drives per client, so each drive's stream stays
// ordered) and returns the drained warning feed plus fleet-wide totals.
func runFleet(t *testing.T, fleet []driveStream, shards, clients int) ([]hddcart.MonitorWarning, ShardMetrics) {
	t.Helper()
	s, err := New(Config{
		NewMonitor: newTestMonitor,
		Shards:     shards,
		QueueDepth: 4096, // above fleet volume: this test wants lossless runs
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for d := c; d < len(fleet); d += clients {
				for _, rec := range fleet[d].recs {
					if got := s.Ingest(fleet[d].serial, rec); got != Accepted {
						t.Errorf("ingest %s hour %d: disposition %v", fleet[d].serial, rec.Hour, got)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	s.Drain()
	ws := s.Warnings()
	m := s.Metrics()
	if len(m.Shards) != shards {
		t.Errorf("metrics report %d shards, want %d", len(m.Shards), shards)
	}
	return ws, m.Totals
}

// TestServeDeterminismMatrix is the concurrency harness from the issue:
// the same ingest streams at every (shard count × client concurrency)
// combination must yield the identical warning set and identical
// fleet-total monitor stats — sharding and scheduling are invisible in
// the service's outputs.
func TestServeDeterminismMatrix(t *testing.T) {
	fleet := testFleet(60, 24)
	type run struct {
		shards, clients int
	}
	var runs []run
	for _, shards := range []int{1, 4, 16} {
		for _, clients := range []int{1, 8} {
			runs = append(runs, run{shards, clients})
		}
	}
	baseWs, baseTotals := runFleet(t, fleet, runs[0].shards, runs[0].clients)
	if len(baseWs) == 0 {
		t.Fatal("baseline run raised no warnings; the fixture is supposed to deteriorate drives")
	}
	// Totals carry the queue geometry (cap varies with shard count);
	// the invariant is the monitor and ingest accounting.
	normalize := func(sm ShardMetrics) ShardMetrics {
		sm.Shard = 0
		sm.QueueCap = 0
		sm.QueueDepth = 0
		return sm
	}
	for _, r := range runs[1:] {
		ws, totals := runFleet(t, fleet, r.shards, r.clients)
		if len(ws) != len(baseWs) {
			t.Fatalf("shards=%d clients=%d: %d warnings, baseline %d", r.shards, r.clients, len(ws), len(baseWs))
		}
		for i := range ws {
			if ws[i] != baseWs[i] {
				t.Errorf("shards=%d clients=%d: warning %d = %+v, baseline %+v",
					r.shards, r.clients, i, ws[i], baseWs[i])
			}
		}
		if normalize(totals) != normalize(baseTotals) {
			t.Errorf("shards=%d clients=%d: totals %+v, baseline %+v", r.shards, r.clients, totals, baseTotals)
		}
	}
}

// TestWarningsExactlyOnce checks the feed is drained destructively and
// in deterministic order.
func TestWarningsExactlyOnce(t *testing.T) {
	fleet := testFleet(12, 20)
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, QueueDepth: 1024})
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
	first := s.Warnings()
	if len(first) == 0 {
		t.Fatal("no warnings")
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Hour > b.Hour || (a.Hour == b.Hour && a.Serial >= b.Serial) {
			t.Errorf("feed out of order at %d: %+v before %+v", i, a, b)
		}
	}
	if again := s.Warnings(); len(again) != 0 {
		t.Errorf("second drain returned %d warnings, want 0", len(again))
	}
}

// TestResolve checks the operator path routes to the owning shard.
func TestResolve(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for h := 0; h < 6; h++ {
		s.Ingest("drive-0000", recAt(h, -0.9))
	}
	s.Drain()
	if n := len(s.Warnings()); n != 1 {
		t.Fatalf("got %d warnings, want 1", n)
	}
	s.Resolve("drive-0000")
	// After resolve the drive may warn again from a fresh window.
	for h := 6; h < 12; h++ {
		s.Ingest("drive-0000", recAt(h, -0.9))
	}
	s.Drain()
	if n := len(s.Warnings()); n != 1 {
		t.Errorf("resolved drive re-warned %d times, want 1", n)
	}
}

// TestCloseIdempotentAndClosedIngest checks shutdown semantics.
func TestCloseIdempotentAndClosedIngest(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest("drive-0000", recAt(0, 0.5))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if got := s.Ingest("drive-0000", recAt(1, 0.5)); got != Closed {
		t.Errorf("ingest after close: disposition %v, want Closed", got)
	}
	// Accepted-before-close records were observed by the drain-on-stop.
	if m := s.Metrics(); m.Totals.Monitor.Observed != 1 {
		t.Errorf("observed %d, want 1", m.Totals.Monitor.Observed)
	}
}

// TestServeCallsAfterClose calls Warnings, Metrics and SnapshotNow from
// 8 goroutines at once after Close, when no shard goroutine is left to
// serialize them: the race detector must stay quiet, every undrained
// warning must be delivered exactly once, and every snapshot written.
func TestServeCallsAfterClose(t *testing.T) {
	const callers = 8
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 4, QueueDepth: 1024,
		SnapshotPath: filepath.Join(t.TempDir(), "state.snap")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testFleet(12, 20) {
		for _, rec := range d.recs {
			s.Ingest(d.serial, rec)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	feed := s.Metrics().Totals.FeedLength
	if feed == 0 {
		t.Fatal("no undrained warnings at Close; the fleet is supposed to deteriorate drives")
	}
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				delivered.Add(int64(len(s.Warnings())))
				if m := s.Metrics(); m.Totals.Pending != 0 {
					t.Errorf("pending %d after Close, want 0", m.Totals.Pending)
				}
				if err := s.SnapshotNow(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := delivered.Load(); got != int64(feed) {
		t.Errorf("%d warnings delivered after Close, want the %d undrained", got, feed)
	}
}

// parkShards holds every shard's monitor lock, so no shard goroutine
// can claim a batch, until the returned release is closed; wait returns
// once the locks are given back. Tests use it to measure or fill queues
// with no consumer running.
func parkShards(s *Server) (release chan struct{}, wait func()) {
	release = make(chan struct{})
	for _, sh := range s.shards {
		sh.monMu.Lock()
	}
	unparked := make(chan struct{})
	go func() {
		<-release
		for _, sh := range s.shards {
			sh.monMu.Unlock()
		}
		close(unparked)
	}()
	return release, func() { <-unparked }
}

// TestIngestAllocs pins the hot path's zero-allocation contract (the
// //hddlint:noalloc annotations are the static side; this is the
// runtime side). Shards are parked so the only activity measured is the
// producer path itself.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, wait := parkShards(s)
	rec := recAt(0, 0.5)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Ingest("drive-0000", rec)
	}); allocs != 0 {
		t.Errorf("Ingest allocates %.1f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		ShardOf("drive-0000", 16)
	}); allocs != 0 {
		t.Errorf("ShardOf allocates %.1f per call, want 0", allocs)
	}
	close(release)
	wait()
	runtime.KeepAlive(s)
}
