// Tests for the shard ingest queue: FIFO order across the ring's wrap,
// eviction of queued (never claimed) records under ShedOldest, Drain's
// wake on the last retire, queue accounting in Metrics, and Ingest
// racing Close.
package serve

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hddcart"
)

// queued returns the number of records waiting to be claimed.
func (sh *shard) queued() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.n
}

// pending returns the number of records accepted but not yet observed.
func (sh *shard) pending() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.n + sh.claimed
}

// waitTimeout fails the test when done is not closed within a generous
// bound, so a lost wakeup fails instead of hanging the suite.
func waitTimeout(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestRingOrderAcrossWrap pushes long interleaved streams through queues
// far shorter than the streams, and shorter or longer than a claim, so
// the ring wraps inside claims: every record must reach the monitor
// once and in order.
func TestRingOrderAcrossWrap(t *testing.T) {
	const drives, hours = 4, 500
	for _, depth := range []int{1, 3, claimBatch - 1, claimBatch + 5} {
		t.Run(fmt.Sprint("depth=", depth), func(t *testing.T) {
			s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, QueueDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for h := 0; h < hours; h++ {
				for d := 0; d < drives; d++ {
					for s.Ingest(fmt.Sprintf("drive-%04d", d), recAt(h, 0.5)) == Rejected {
						runtime.Gosched()
					}
				}
			}
			s.Drain()
			tot := s.Metrics().Totals
			m := tot.Monitor
			if m.Observed != drives*hours || m.DroppedOutOfOrder != 0 || m.DroppedDuplicate != 0 {
				t.Errorf("monitor saw %+v, want %d records in order", m, drives*hours)
			}
			if tot.Accepted != drives*hours || tot.Shed != 0 || tot.Pending != 0 || tot.QueueDepth != 0 {
				t.Errorf("totals %+v", tot)
			}
		})
	}
}

// blockingModel scores like offsetModel and records every feature value
// it is asked to score; its first Predict blocks until release is
// closed, so the shard goroutine holds its claimed batch meanwhile.
type blockingModel struct {
	entered, release chan struct{}
	mu               sync.Mutex
	seen             []float64
}

func (m *blockingModel) Predict(x []float64) float64 {
	m.mu.Lock()
	m.seen = append(m.seen, x[0])
	first := len(m.seen) == 1
	m.mu.Unlock()
	if first {
		close(m.entered)
		<-m.release
	}
	return x[0] - testScoreOffset
}

// TestShedSparesClaimedBatch overloads a ShedOldest shard while its
// goroutine holds a claimed batch: only queued records may be evicted,
// however many sheds the held batch sees. The monitor must see the
// whole claimed batch, then the freshest QueueDepth records, in order,
// and the counters must be exact.
func TestShedSparesClaimedBatch(t *testing.T) {
	const depth, later = 8, 20 * claimBatch
	model := &blockingModel{entered: make(chan struct{}), release: make(chan struct{})}
	cfg := testMonitorConfig()
	cfg.Model = model
	s, err := New(Config{
		NewMonitor: func() (*hddcart.Monitor, error) { return hddcart.NewMonitor(cfg) },
		Shards:     1,
		QueueDepth: depth,
		Policy:     ShedOldest,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// value(h) encodes the hour in the record's only feature.
	value := func(h int) float64 { return float64(h) / 1e4 }
	release, wait := parkShards(s)
	for h := 0; h < depth; h++ {
		s.Ingest("drive-0000", recAt(h, value(h)))
	}
	close(release)
	wait()
	<-model.entered // the shard holds hours 0..depth-1 and blocks on hour 0
	for h := depth; h < depth+later; h++ {
		if got := s.Ingest("drive-0000", recAt(h, value(h))); got != Accepted {
			t.Fatalf("shed policy refused hour %d: %v", h, got)
		}
	}
	sh := s.shards[0]
	if q, p := sh.queued(), sh.pending(); q != depth || p != 2*depth {
		t.Errorf("with a held batch: %d queued, %d pending; want %d and %d", q, p, depth, 2*depth)
	}
	close(model.release)
	s.Drain()

	var want []float64
	for h := 0; h < depth; h++ {
		want = append(want, value(h)+testScoreOffset)
	}
	for h := later; h < depth+later; h++ {
		want = append(want, value(h)+testScoreOffset)
	}
	model.mu.Lock()
	seen := model.seen
	model.mu.Unlock()
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("monitor scored %v,\nwant the claimed batch then the freshest suffix %v", seen, want)
	}
	tot := s.Metrics().Totals
	if tot.Accepted != depth+later || tot.Shed != later-depth || tot.Rejected != 0 || tot.Pending != 0 {
		t.Errorf("totals %+v, want %d accepted / %d shed", tot, depth+later, later-depth)
	}
	if m := tot.Monitor; m.Observed != 2*depth || m.DroppedOutOfOrder != 0 {
		t.Errorf("monitor saw %+v, want %d records in order", m, 2*depth)
	}
}

// TestDrainWakesOnLastRetire checks Drain sleeps until the last record
// retires and is never left waiting: it returns at once with nothing
// pending (even while the shard goroutines are busy elsewhere), returns
// once a parked shed backlog retires, wakes every concurrent caller,
// and survives many short ingest/Drain rounds.
func TestDrainWakesOnLastRetire(t *testing.T) {
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, QueueDepth: 4, Policy: ShedOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drained := func() chan struct{} {
		done := make(chan struct{})
		go func() {
			s.Drain()
			close(done)
		}()
		return done
	}

	release, wait := parkShards(s)
	waitTimeout(t, drained(), "Drain with nothing pending")
	for h := 0; h < 40; h++ {
		s.Ingest("drive-0000", recAt(h, 0.5))
		s.Ingest("drive-0001", recAt(h, 0.5))
	}
	first, second := drained(), drained()
	select {
	case <-first:
		t.Fatal("Drain returned while the shed backlog was still queued")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	wait()
	waitTimeout(t, first, "Drain over a parked shed backlog")
	waitTimeout(t, second, "a second concurrent Drain")
	if tot := s.Metrics().Totals; tot.Pending != 0 || int64(tot.Monitor.Observed) != tot.Accepted-tot.Shed {
		t.Errorf("after Drain: %+v", tot)
	}

	for h := 40; h < 2040; h++ {
		s.Ingest("drive-0000", recAt(h, 0.5))
		waitTimeout(t, drained(), fmt.Sprintf("Drain after hour %d", h))
	}
}

// TestMetricsQueueWhileParked checks a shard's metrics row reads the
// queue when it is taken: with the shard goroutines parked (their
// monitor locks held, so the rows are read as Metrics reads them),
// QueueDepth and Pending count every accepted record.
func TestMetricsQueueWhileParked(t *testing.T) {
	const sent = 40
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, wait := parkShards(s)
	want := make([]int64, len(s.shards))
	for d := 0; d < sent; d++ {
		serial := fmt.Sprintf("drive-%04d", d)
		if got := s.Ingest(serial, recAt(0, 0.5)); got != Accepted {
			t.Fatalf("ingest %s: %v", serial, got)
		}
		want[ShardOf(serial, len(s.shards))]++
	}
	var totals ShardMetrics
	for i, sh := range s.shards {
		sm := sh.metrics()
		if int64(sm.QueueDepth) != want[i] || sm.Pending != want[i] || sm.Accepted != want[i] || sm.Monitor.Observed != 0 {
			t.Errorf("parked shard %d: %+v, want %d queued and pending", i, sm, want[i])
		}
		totals.add(&sm)
	}
	if totals.QueueDepth != sent || totals.Pending != sent {
		t.Errorf("totals %+v, want %d queued and pending", totals, sent)
	}
	close(release)
	wait()
	s.Drain()
	if tot := s.Metrics().Totals; tot.QueueDepth != 0 || tot.Pending != 0 || tot.Monitor.Observed != sent {
		t.Errorf("after Drain: %+v", tot)
	}
}

// TestMetricsRowConsistent calls Metrics in a loop while two goroutines
// ingest into shedding shards: every shard row must be one point in
// time, so Monitor.Observed + Pending + Shed == Accepted on each, with
// records moving between all four counters while Metrics reads them.
func TestMetricsRowConsistent(t *testing.T) {
	const ingesters, drives, calls = 2, 8, 20000
	s, err := New(Config{NewMonitor: newTestMonitor, Shards: 2, QueueDepth: 8, Policy: ShedOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	serials := make([]string, drives)
	for d := range serials {
		serials[d] = fmt.Sprintf("drive-%04d", d)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < ingesters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for h := 0; ; h++ {
				select {
				case <-stop:
					return
				default:
				}
				for d := c; d < drives; d += ingesters {
					s.Ingest(serials[d], recAt(h, 0.5))
				}
				if h%8 == 7 {
					runtime.Gosched() // a burst of 32 records at GOMAXPROCS 1
				}
			}
		}(c)
	}
	rows, broken := 0, 0
	for i := 0; i < calls; i++ {
		runtime.Gosched() // interleave with the ingesters even at GOMAXPROCS 1
		for _, sm := range s.Metrics().Shards {
			rows++
			if int64(sm.Monitor.Observed)+sm.Pending+sm.Shed != sm.Accepted {
				if broken == 0 {
					t.Errorf("call %d, shard %d: %d observed + %d pending + %d shed != %d accepted",
						i, sm.Shard, sm.Monitor.Observed, sm.Pending, sm.Shed, sm.Accepted)
				}
				broken++
			}
		}
	}
	close(stop)
	wg.Wait()
	if broken > 0 {
		t.Errorf("%d of %d shard rows broke Observed + Pending + Shed == Accepted", broken, rows)
	}
	if tot := s.Metrics().Totals; tot.Monitor.Observed == 0 || tot.Shed == 0 {
		t.Errorf("totals %+v: the run must both observe and shed records", tot)
	}
}

// TestIngestCloseRace ingests from several goroutines while Close runs.
// Every Accepted record must be observed or shed before Close returns:
// none may be stranded in a queue the shard has stopped draining, and
// the final snapshot must hold every observation.
func TestIngestCloseRace(t *testing.T) {
	const clients = 4
	for _, policy := range []Policy{RejectNew, ShedOldest} {
		t.Run(policy.String(), func(t *testing.T) {
			for round := 0; round < 20; round++ {
				cfg := Config{
					NewMonitor:   newTestMonitor,
					Shards:       2,
					QueueDepth:   16,
					Policy:       policy,
					SnapshotPath: filepath.Join(t.TempDir(), "state.snap"),
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var accepted atomic.Int64
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						serial := fmt.Sprintf("drive-%04d", c)
						for h := 0; ; h++ {
							switch s.Ingest(serial, recAt(h, 0.5)) {
							case Accepted:
								accepted.Add(1)
							case Rejected:
								runtime.Gosched()
							case Closed:
								return
							}
						}
					}(c)
				}
				for accepted.Load() < int64(round*10) {
					runtime.Gosched()
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				tot := s.Metrics().Totals
				if tot.Accepted != accepted.Load() || tot.Pending != 0 || tot.QueueDepth != 0 ||
					int64(tot.Monitor.Observed)+tot.Shed != tot.Accepted {
					t.Fatalf("round %d: %d accepted by Ingest, totals %+v", round, accepted.Load(), tot)
				}
				r, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rm := r.Metrics()
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if !rm.SnapshotRestored || rm.Totals.Monitor.Observed != tot.Monitor.Observed {
					t.Fatalf("round %d: restored %v with %d observed, want %d",
						round, rm.SnapshotRestored, rm.Totals.Monitor.Observed, tot.Monitor.Observed)
				}
			}
		})
	}
}
