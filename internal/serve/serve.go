// Package serve runs the online Monitor as a long-lived sharded fleet
// service: SMART snapshot batches are routed to goroutine-owned monitor
// shards by drive serial, warnings drain through a deterministically
// ordered merged feed, monitor state snapshots to disk periodically and
// restores on startup, and per-shard ingest accounting is exported for
// scraping.
//
// Concurrency model — shard ownership. Each shard goroutine exclusively
// owns one *hddcart.Monitor plus its warning feed; nothing else ever
// touches them. Producers reach a shard only two ways: a bounded record
// queue under a per-shard lock (the ingest path), which the shard
// goroutine claims from in batches, and a control channel whose
// requests run as closures inside the shard loop, between batches, and
// are awaited by the caller (the metrics/warnings/snapshot path). The
// lock guards the queue alone, never the monitor. Because a drive's
// serial always hashes to the same shard, each drive's records are
// observed by exactly one goroutine in arrival order, which is what
// makes the service's alarms a pure function of the per-drive streams —
// independent of shard count, client concurrency and scheduling.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hddcart"
	"hddcart/internal/smart"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	// DefaultShards is the default monitor shard count.
	DefaultShards = 8
	// DefaultQueueDepth is the default per-shard ingest queue bound.
	DefaultQueueDepth = 1024
)

// Policy selects what a full shard queue does with load it cannot hold.
// Both policies bound memory; they differ in who pays: RejectNew pushes
// the cost onto the sender (backpressure), ShedOldest onto the stalest
// queued record (freshness). Every record refused or evicted is counted,
// never silently dropped — the same explicit-degradation contract the
// Monitor applies to corrupt telemetry.
type Policy int

const (
	// RejectNew refuses the incoming record when the shard queue is
	// full; the HTTP layer surfaces this as 429 so collectors retry
	// with backoff.
	RejectNew Policy = iota
	// ShedOldest evicts the oldest queued record to admit the new one:
	// under sustained overload the service tracks the freshest
	// telemetry instead of serving an ever-staler backlog.
	ShedOldest
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case RejectNew:
		return "reject"
	case ShedOldest:
		return "shed"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy flag value ("reject" or "shed").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reject":
		return RejectNew, nil
	case "shed":
		return ShedOldest, nil
	}
	return 0, fmt.Errorf("serve: unknown policy %q (want reject or shed)", s)
}

// Disposition reports what Ingest did with one record.
type Disposition int

const (
	// Accepted: the record was queued for its shard's monitor.
	Accepted Disposition = iota
	// Rejected: the shard queue was full under RejectNew.
	Rejected
	// Closed: the server is shut down.
	Closed
)

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of monitor shards (0 = DefaultShards). More
	// shards reduce queue contention; the merged alarm feed and
	// aggregated stats are shard-count independent.
	Shards int
	// QueueDepth bounds each shard's ingest queue (0 =
	// DefaultQueueDepth): a shard holds at most QueueDepth records
	// waiting to be claimed, plus the batch of up to 64 it is
	// observing. Memory is bounded by Shards × (QueueDepth + 64) record
	// slots, allocated up front, regardless of load.
	QueueDepth int
	// Policy selects the full-queue degradation policy.
	Policy Policy
	// NewMonitor constructs one shard's monitor. It is called once per
	// shard (and again on a failed restore), so every shard gets an
	// identically configured, independent monitor.
	NewMonitor func() (*hddcart.Monitor, error)
	// SnapshotPath, when non-empty, is the state snapshot file: New
	// restores from it if present and Close (and the SnapshotEvery
	// ticker) write it atomically.
	SnapshotPath string
	// SnapshotEvery, when positive, snapshots periodically. Requires
	// SnapshotPath.
	SnapshotEvery time.Duration
}

// Validate rejects configurations that would silently degenerate.
func (cfg *Config) Validate() error {
	if cfg.NewMonitor == nil {
		return errors.New("serve: config needs a NewMonitor constructor")
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("serve: shard count %d must be non-negative", cfg.Shards)
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("serve: queue depth %d must be non-negative", cfg.QueueDepth)
	}
	if cfg.Policy != RejectNew && cfg.Policy != ShedOldest {
		return fmt.Errorf("serve: unknown policy %d", int(cfg.Policy))
	}
	if cfg.SnapshotEvery < 0 {
		return fmt.Errorf("serve: snapshot interval %v must be non-negative", cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery > 0 && cfg.SnapshotPath == "" {
		return errors.New("serve: periodic snapshots need a snapshot path")
	}
	return nil
}

// claimBatch is the most queued records the shard goroutine claims at
// once. A claim and its retire each take the queue lock once, so the
// hop costs two lock round trips per claimBatch records instead of a
// channel message per record.
const claimBatch = 64

// item is one routed ingest record.
type item struct {
	serial string
	rec    smart.Record
}

// ctlReq is a control-channel request: fn runs inside the shard loop
// (with exclusive access to the shard's monitor and feed) and done is
// closed when it has run, so the caller's values are visible to it by
// the usual happens-before of channel operations.
type ctlReq struct {
	fn   func(*shard)
	done chan struct{}
}

// shard is one goroutine-owned partition of the fleet.
type shard struct {
	id   int
	ctl  chan ctlReq
	stop chan struct{}
	done chan struct{}
	// wake carries one token when the queue goes from empty to
	// non-empty; idle carries one when the last claimed or queued
	// record retires. Both are 1-buffered, so a signal sent while
	// nobody waits is kept for the next waiter.
	wake chan struct{}
	idle chan struct{}

	// mu guards the ingest queue and the counters below it. The queue
	// is a FIFO ring of slot ids (queue[head], …, n of them) over a pool
	// of QueueDepth + claimBatch record slots: QueueDepth for queued
	// records, claimBatch for the batch the shard goroutine holds.
	// Producers copy a record into a free slot and append its id; the
	// shard goroutine claims up to claimBatch ids into batch, reads
	// those slots without the lock, then returns the ids to free. A
	// shed drops the oldest queued id, never a claimed one.
	mu      sync.Mutex
	slots   []item
	queue   []uint32
	head, n int
	free    []uint32 // free[:nfree] are the free slot ids
	nfree   int
	claimed int  // len of the batch the shard goroutine holds
	closed  bool // set by the shard's final drain: Ingest answers Closed
	// accepted/rejected/shed are the drop accounting; records accepted
	// but not yet observed are n + claimed.
	accepted, rejected, shed int64

	// Owned exclusively by the shard goroutine (and by control-channel
	// closures running inside it).
	batch    []uint32
	mon      *hddcart.Monitor
	warnings []hddcart.MonitorWarning
}

// newShard builds shard id's queue with room for depth queued records.
func newShard(id, depth int, mon *hddcart.Monitor) *shard {
	sh := &shard{
		id:    id,
		ctl:   make(chan ctlReq),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		wake:  make(chan struct{}, 1),
		idle:  make(chan struct{}, 1),
		slots: make([]item, depth+claimBatch),
		queue: make([]uint32, depth),
		free:  make([]uint32, depth+claimBatch),
		nfree: depth + claimBatch,
		batch: make([]uint32, claimBatch),
		mon:   mon,
	}
	for i := range sh.free {
		sh.free[i] = uint32(i)
	}
	return sh
}

// loop is the shard goroutine: it observes queued records a batch at a
// time, services control requests between batches, and on stop drains
// what was already accepted so no accepted record is lost across
// shutdown.
func (sh *shard) loop() {
	defer close(sh.done)
	for {
		if k := sh.claim(false); k > 0 {
			sh.observe(k)
			select {
			case req := <-sh.ctl:
				req.fn(sh)
				close(req.done)
			default:
			}
			continue
		}
		select {
		case <-sh.wake:
		case req := <-sh.ctl:
			req.fn(sh)
			close(req.done)
		case <-sh.stop:
			for {
				k := sh.claim(true)
				if k == 0 {
					return
				}
				sh.observe(k)
			}
		}
	}
}

// claim moves up to claimBatch of the oldest queued ids into sh.batch
// and returns how many. With closing set, finding the queue empty also
// closes it, so every record Ingest accepted is claimed by this drain.
func (sh *shard) claim(closing bool) int {
	sh.mu.Lock()
	k := min(sh.n, claimBatch)
	if k == 0 && closing {
		sh.closed = true
	}
	first := copy(sh.batch[:k], sh.queue[sh.head:])
	copy(sh.batch[first:k], sh.queue)
	sh.head = (sh.head + k) % len(sh.queue)
	sh.n -= k
	sh.claimed = k
	sh.mu.Unlock()
	return k
}

// observe feeds the k claimed records to the shard's monitor, appending
// any new warning to the shard feed, then retires the batch: its slots
// go back to the free list and, when nothing else is queued, Drain is
// woken.
func (sh *shard) observe(k int) {
	for _, id := range sh.batch[:k] {
		it := &sh.slots[id]
		if w, ok := sh.mon.Observe(it.serial, it.rec); ok {
			sh.warnings = append(sh.warnings, w)
		}
		it.serial = ""
	}
	sh.mu.Lock()
	sh.nfree += copy(sh.free[sh.nfree:], sh.batch[:k])
	sh.claimed = 0
	idle := sh.n == 0
	sh.mu.Unlock()
	if idle {
		signal(sh.idle)
	}
}

// signal leaves a token in a 1-buffered channel unless one is there.
//
//hddlint:noalloc
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// do runs fn inside the shard goroutine and waits for it. After Close
// the shard goroutine is gone, so fn runs in the caller instead — still
// race-free because post-close requests are serialized by the server's
// control mutex via the exported entry points.
func (sh *shard) do(fn func(*shard)) {
	req := ctlReq{fn: fn, done: make(chan struct{})}
	select {
	case sh.ctl <- req:
		<-req.done
	case <-sh.done:
		fn(sh)
	}
}

// Server is a sharded fleet-monitoring service. Create with New, feed
// with Ingest (or the HTTP handler), shut down with Close.
type Server struct {
	cfg    Config
	shards []*shard
	closed atomic.Bool
	start  time.Time

	snapshotState
}

// New builds the server: constructs one monitor per shard, restores
// state from Config.SnapshotPath when the file exists (an unreadable or
// mismatched snapshot is a counted cold start, never a crash), then
// starts the shard goroutines and, if configured, the snapshot ticker.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	s := &Server{cfg: cfg, start: time.Now()}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		mon, err := cfg.NewMonitor()
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d monitor: %w", i, err)
		}
		s.shards[i] = newShard(i, cfg.QueueDepth, mon)
	}
	if cfg.SnapshotPath != "" {
		// Runs before any shard goroutine exists, so the monitors are
		// still plainly accessible.
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	for _, sh := range s.shards {
		//hddlint:ignore nakedgo shard loops are the service's long-lived owners, joined per-shard via <-sh.done in Close, not a fork/join pool
		go sh.loop()
	}
	if cfg.SnapshotEvery > 0 {
		s.stopTicker = make(chan struct{})
		s.tickerDone = make(chan struct{})
		//hddlint:ignore nakedgo the snapshot ticker lives until Close, which joins it via <-s.tickerDone
		go s.snapshotLoop()
	}
	return s, nil
}

// Close stops the service: the snapshot ticker and every shard
// goroutine are joined (each shard drains its accepted backlog first),
// then a final snapshot is written when a path is configured. Close is
// idempotent; Ingest during or after Close returns Closed.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.stopTicker != nil {
		close(s.stopTicker)
		<-s.tickerDone
	}
	for _, sh := range s.shards {
		close(sh.stop)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	if s.cfg.SnapshotPath != "" {
		return s.SnapshotNow()
	}
	return nil
}

// ShardOf routes a drive serial onto one of p shards (p ≥ 1): FNV-1a
// folds the serial to 64 bits and the same splitmix64 finalizer
// internal/sweep applies to drive indexes whitens the fold, so shard
// membership is a pure function of the serial — stable across runs,
// processes and restarts, which is what lets a snapshot taken by one
// process be restored shard-for-shard by the next.
//
//hddlint:noalloc
func ShardOf(serial string, p int) int {
	h := uint64(1469598103934665603)
	for i := 0; i < len(serial); i++ {
		h ^= uint64(serial[i])
		h *= 1099511628211
	}
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(p))
}

// Ingest routes one record to its serial's shard. It is safe for any
// number of concurrent callers and never blocks unboundedly: a full
// queue either rejects the record (RejectNew) or sheds the shard's
// oldest queued record to admit it (ShedOldest), with both outcomes
// counted exactly. Under the shard's queue lock it copies the record
// into a free slot, so the hot path is allocation-free and sends a
// channel message only when it wakes an idle shard.
//
//hddlint:noalloc
func (s *Server) Ingest(serial string, rec smart.Record) Disposition {
	if s.closed.Load() {
		return Closed
	}
	sh := s.shards[ShardOf(serial, len(s.shards))]
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return Closed
	}
	var id uint32
	if sh.n == len(sh.queue) {
		if s.cfg.Policy == RejectNew {
			sh.rejected++
			sh.mu.Unlock()
			return Rejected
		}
		// ShedOldest: the oldest queued record's slot takes the new one.
		id = sh.queue[sh.head]
		sh.head++
		if sh.head == len(sh.queue) {
			sh.head = 0
		}
		sh.n--
		sh.shed++
	} else {
		sh.nfree--
		id = sh.free[sh.nfree]
	}
	it := &sh.slots[id]
	it.serial, it.rec = serial, rec
	tail := sh.head + sh.n
	if tail >= len(sh.queue) {
		tail -= len(sh.queue)
	}
	sh.queue[tail] = id
	sh.n++
	sh.accepted++
	wake := sh.n == 1
	sh.mu.Unlock()
	if wake {
		signal(sh.wake)
	}
	return Accepted
}

// Drain blocks until every record accepted before the call has been
// observed (or shed). It sleeps until a shard retires its last record
// rather than polling. It is a test/benchmark synchronization point:
// call it with no concurrent Ingest traffic, then Warnings and Metrics
// reflect the complete stream.
func (s *Server) Drain() {
	for _, sh := range s.shards {
		waited := false
		for sh.pending() > 0 {
			<-sh.idle
			waited = true
		}
		if waited {
			// Another Drain may be waiting on the token this one took.
			signal(sh.idle)
		}
	}
}

// pending returns the number of records accepted but not yet observed.
func (sh *shard) pending() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.n + sh.claimed
}

// Warnings drains the merged alarm feed: every shard's pending warnings
// are collected through the control channel, merged in shard order and
// sorted by (hour, serial). The order is a pure function of the warning
// set, so two runs of the same streams — at any shard count or client
// concurrency — drain identical feeds. Each warning is delivered
// exactly once.
func (s *Server) Warnings() []hddcart.MonitorWarning {
	var all []hddcart.MonitorWarning
	for _, sh := range s.shards {
		var batch []hddcart.MonitorWarning
		sh.do(func(sh *shard) {
			batch = sh.warnings
			sh.warnings = nil
		})
		all = append(all, batch...)
	}
	SortWarnings(all)
	return all
}

// SortWarnings orders a warning feed deterministically: by raise hour,
// then serial. Warnings are unique per (serial, outstanding-window), so
// the order is total.
func SortWarnings(ws []hddcart.MonitorWarning) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Hour != ws[j].Hour {
			return ws[i].Hour < ws[j].Hour
		}
		return ws[i].Serial < ws[j].Serial
	})
}

// ShardMetrics is one shard's observable state.
type ShardMetrics struct {
	// Shard is the shard index (−1 in Metrics.Totals).
	Shard int `json:"shard"`
	// Monitor is the shard monitor's ingest accounting.
	Monitor hddcart.MonitorStats `json:"monitor"`
	// QueueDepth and QueueCap are the number of records waiting to be
	// claimed, read when Metrics is called, and its bound.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Accepted, Rejected and Shed count Ingest outcomes.
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// Pending counts accepted records not yet observed or shed: the
	// queued ones and the batch the shard is observing.
	Pending int64 `json:"pending"`
	// FeedLength is the undrained warning feed length.
	FeedLength int `json:"feed_length"`
}

// add accumulates src into dst (for the fleet-wide totals row).
func (dst *ShardMetrics) add(src *ShardMetrics) {
	dst.Monitor.Add(src.Monitor)
	dst.QueueDepth += src.QueueDepth
	dst.QueueCap += src.QueueCap
	dst.Accepted += src.Accepted
	dst.Rejected += src.Rejected
	dst.Shed += src.Shed
	dst.Pending += src.Pending
	dst.FeedLength += src.FeedLength
}

// Metrics is the service-wide observable state.
type Metrics struct {
	// Shards holds one row per shard, in shard order.
	Shards []ShardMetrics `json:"shards"`
	// Totals sums the shard rows (Shard = −1). Addition is commutative,
	// so totals are identical across shard counts for the same streams.
	Totals ShardMetrics `json:"totals"`
	// Policy is the configured degradation policy.
	Policy string `json:"policy"`
	// UptimeSeconds is the time since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// SnapshotAgeSeconds is the age of the last successful snapshot
	// (−1 when none has been taken or restored).
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// SnapshotErrors counts failed snapshot writes and failed restores
	// (each a counted cold start).
	SnapshotErrors int64 `json:"snapshot_errors"`
	// SnapshotRestored reports whether startup restored prior state.
	SnapshotRestored bool `json:"snapshot_restored"`
}

// Metrics gathers every shard's state and the fleet-wide totals. The
// queue and its counters are read together under the shard's queue
// lock; the monitor stats are then read inside the owning goroutine
// through its control channel, so each is a consistent point-in-time
// view.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Shards:             make([]ShardMetrics, 0, len(s.shards)),
		Policy:             s.cfg.Policy.String(),
		UptimeSeconds:      time.Since(s.start).Seconds(),
		SnapshotAgeSeconds: -1,
		SnapshotErrors:     s.snapshotErrors.Load(),
		SnapshotRestored:   s.restored.Load(),
	}
	m.Totals.Shard = -1
	if taken := s.lastSnapshotUnix.Load(); taken != 0 {
		m.SnapshotAgeSeconds = time.Since(time.Unix(taken, 0)).Seconds()
	}
	for i, sh := range s.shards {
		sm := ShardMetrics{Shard: i}
		// The queue is read before the control hop: the shard services
		// that between batches, when it may just have claimed the queue.
		sh.mu.Lock()
		sm.QueueDepth = sh.n
		sm.QueueCap = len(sh.queue)
		sm.Accepted = sh.accepted
		sm.Rejected = sh.rejected
		sm.Shed = sh.shed
		sm.Pending = int64(sh.n + sh.claimed)
		sh.mu.Unlock()
		sh.do(func(sh *shard) {
			sm.Monitor = sh.mon.Stats()
			sm.FeedLength = len(sh.warnings)
		})
		m.Shards = append(m.Shards, sm)
		m.Totals.add(&sm)
	}
	return m
}

// Resolve clears a drive's warning and quarantine state on its owning
// shard (operator acknowledgement after replacement or a telemetry
// fix).
func (s *Server) Resolve(serial string) {
	sh := s.shards[ShardOf(serial, len(s.shards))]
	sh.do(func(sh *shard) { sh.mon.Resolve(serial) })
}

// Shards returns the configured shard count.
func (s *Server) Shards() int { return len(s.shards) }
