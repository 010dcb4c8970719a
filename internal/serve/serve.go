// Package serve runs the online Monitor as a long-lived sharded fleet
// service: SMART snapshot batches are routed to goroutine-owned monitor
// shards by drive serial, warnings drain through a deterministically
// ordered merged feed, monitor state snapshots to disk periodically and
// restores on startup, and per-shard ingest accounting is exported for
// scraping.
//
// Concurrency model — shard ownership, not locks. Each shard goroutine
// exclusively owns one *hddcart.Monitor plus its warning feed; nothing
// else ever touches them. Producers reach a shard only through two
// channels: a bounded item queue (the ingest path) and a control channel
// whose requests run as closures inside the shard loop and are awaited
// by the caller (the metrics/warnings/snapshot path). Because a drive's
// serial always hashes to the same shard, each drive's records are
// observed by exactly one goroutine in arrival order, which is what
// makes the service's alarms a pure function of the per-drive streams —
// independent of shard count, client concurrency and scheduling.
package serve

import (
	"errors"
	"fmt"
	"sort"
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
	// DefaultQueueDepth). Memory is bounded by Shards × QueueDepth
	// records regardless of load.
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
	id    int
	queue chan item
	ctl   chan ctlReq
	stop  chan struct{}
	done  chan struct{}

	// pending counts records accepted but not yet observed (or shed);
	// Drain polls it to zero. accepted/rejected/shed are the drop
	// accounting; all are plain counters updated with typed atomics so
	// producers and the metrics reader never race.
	pending  atomic.Int64
	accepted atomic.Int64
	rejected atomic.Int64
	shed     atomic.Int64

	// Owned exclusively by the shard goroutine (and by control-channel
	// closures running inside it).
	mon      *hddcart.Monitor
	warnings []hddcart.MonitorWarning
}

// loop is the shard goroutine: it observes queued records, services
// control requests, and on stop drains what was already accepted so no
// accepted record is lost across shutdown.
func (sh *shard) loop() {
	defer close(sh.done)
	for {
		select {
		case it := <-sh.queue:
			sh.observe(it)
		case req := <-sh.ctl:
			req.fn(sh)
			close(req.done)
		case <-sh.stop:
			for {
				select {
				case it := <-sh.queue:
					sh.observe(it)
				default:
					return
				}
			}
		}
	}
}

// observe feeds one record to the shard's monitor and appends any new
// warning to the shard feed.
func (sh *shard) observe(it item) {
	if w, ok := sh.mon.Observe(it.serial, it.rec); ok {
		sh.warnings = append(sh.warnings, w)
	}
	sh.pending.Add(-1)
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
		s.shards[i] = &shard{
			id:    i,
			queue: make(chan item, cfg.QueueDepth),
			ctl:   make(chan ctlReq),
			stop:  make(chan struct{}),
			done:  make(chan struct{}),
			mon:   mon,
		}
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
// counted exactly. The hot path is allocation-free — routing, the
// queue send and the counters all stay off the heap.
//
//hddlint:noalloc
func (s *Server) Ingest(serial string, rec smart.Record) Disposition {
	if s.closed.Load() {
		return Closed
	}
	sh := s.shards[ShardOf(serial, len(s.shards))]
	it := item{serial: serial, rec: rec}
	sh.pending.Add(1)
	for {
		select {
		case sh.queue <- it:
			sh.accepted.Add(1)
			return Accepted
		default:
		}
		if s.cfg.Policy == RejectNew {
			sh.pending.Add(-1)
			sh.rejected.Add(1)
			return Rejected
		}
		// ShedOldest: evict one queued record, then retry the send.
		// The eviction can lose the race to the shard loop (which may
		// observe the record first) — then the queue simply has room.
		select {
		case <-sh.queue:
			sh.shed.Add(1)
			sh.pending.Add(-1)
		default:
		}
	}
}

// Drain blocks until every record accepted before the call has been
// observed (or shed). It is a test/benchmark synchronization point:
// call it with no concurrent Ingest traffic, then Warnings and Metrics
// reflect the complete stream.
func (s *Server) Drain() {
	for _, sh := range s.shards {
		for sh.pending.Load() > 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
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
	// QueueDepth and QueueCap are the instantaneous queue fill and its
	// bound.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Accepted, Rejected and Shed count Ingest outcomes; Accepted −
	// observed backlog = Pending.
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// Pending counts accepted records not yet observed.
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

// Metrics gathers every shard's state through its control channel and
// the fleet-wide totals. The per-shard monitor stats are read inside
// the owning goroutine, so the numbers are a consistent point-in-time
// view of each shard.
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
		sh.do(func(sh *shard) {
			sm.Monitor = sh.mon.Stats()
			sm.FeedLength = len(sh.warnings)
		})
		sm.QueueDepth = len(sh.queue)
		sm.QueueCap = cap(sh.queue)
		sm.Accepted = sh.accepted.Load()
		sm.Rejected = sh.rejected.Load()
		sm.Shed = sh.shed.Load()
		sm.Pending = sh.pending.Load()
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
