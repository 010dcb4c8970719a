package hddcart

import (
	"container/heap"
	"errors"
	"fmt"

	"hddcart/internal/detect"
	"hddcart/internal/smart"
)

// DefaultBadSampleBudget is the per-drive error budget used when
// MonitorConfig.BadSampleBudget is 0: after this many consecutive corrupt
// samples the drive is quarantined.
const DefaultBadSampleBudget = 8

// MonitorConfig configures an online Monitor.
type MonitorConfig struct {
	// Features is the model input layout.
	Features FeatureSet
	// Model scores samples (a trained Tree or Network).
	Model Predictor
	// Voters is the detection window N (≥ 1). For binary models a drive
	// alarms when more than N/2 of its last N samples score below
	// Threshold; for health-degree models (UseMean) when the window mean
	// does.
	Voters int
	// Threshold is the alarm cut (0 for ±1 classifiers, a health degree
	// such as −0.3 for regression models). Must lie in [-1, 1].
	Threshold float64
	// UseMean selects mean-threshold (health-degree) detection instead
	// of voting.
	UseMean bool

	// BadSampleBudget is the per-drive error budget: after this many
	// consecutive corrupt samples (non-finite or out-of-domain values)
	// the drive is quarantined — further observations are dropped until
	// Resolve — because a stream that corrupt is telemetry failure, not
	// drive state. 0 means DefaultBadSampleBudget; negative disables
	// quarantine.
	BadSampleBudget int
	// StaleAfterHours resets a drive's score window when the gap between
	// consecutive samples exceeds it: predictions from before a long
	// telemetry blackout say nothing about the drive's health on the
	// other side, so letting them vote would alarm (or clear) on stale
	// evidence. 0 disables stale detection.
	StaleAfterHours int
}

// Validate rejects configurations that would silently degenerate.
func (cfg *MonitorConfig) Validate() error {
	if len(cfg.Features) == 0 {
		return errors.New("hddcart: monitor needs a feature set")
	}
	if cfg.Model == nil {
		return errors.New("hddcart: monitor needs a model")
	}
	if cfg.Voters < 1 {
		return fmt.Errorf("hddcart: monitor window N must be positive, got %d", cfg.Voters)
	}
	if !(cfg.Threshold >= -1 && cfg.Threshold <= 1) { // NaN fails too
		return fmt.Errorf("hddcart: monitor threshold %v outside [-1, 1]", cfg.Threshold)
	}
	if cfg.StaleAfterHours < 0 {
		return fmt.Errorf("hddcart: monitor stale timeout %d h must be non-negative", cfg.StaleAfterHours)
	}
	return nil
}

// Monitor watches a drive population online. Feed every new SMART record
// through Observe; the monitor extracts features (including change rates
// against the drive's retained history), scores them, applies the
// configured detection rule and maintains a warning queue ordered by
// health degree so operators handle the most critical drives first
// (paper §III-B).
//
// Real telemetry arrives late, duplicated, truncated or NaN-laden, so the
// monitor enforces an explicit degradation policy instead of scoring
// whatever it is handed: out-of-order and duplicate records are dropped;
// corrupt values are repaired by carrying the drive's last accepted value
// forward (or the sample dropped when there is no history); each corrupt
// arrival consumes the drive's error budget and exhausting it quarantines
// the drive; a gap longer than StaleAfterHours resets the vote window.
// Every decision is counted in Stats so operators can watch drop, repair
// and quarantine rates instead of discovering them during an incident.
//
// Monitor is not safe for concurrent use; wrap it with a mutex if needed.
type Monitor struct {
	cfg          MonitorConfig
	budget       int       // resolved BadSampleBudget (0 = disabled)
	historyHours int       // per-drive retention: the deepest change-rate interval + 2 h
	x            []float64 // feature scratch, reused across Observe calls
	drives       map[string]*monitoredDrive
	queue        warningHeap
	stats        MonitorStats
}

// MonitorWarning is an outstanding warning with its drive serial.
type MonitorWarning struct {
	// Serial identifies the drive.
	Serial string
	// Health is the predicted health degree (lower = more urgent).
	Health float64
	// Hour is when the warning was raised.
	Hour int
}

// MonitorStats counts every ingest decision the monitor has made, so the
// data-quality regime the fleet is operating under is observable. Rates
// are per Observe call: e.g. Repaired/Observed is the repair rate.
type MonitorStats struct {
	// Observed is the total number of Observe calls.
	Observed int
	// Scored is the number of samples that reached the model.
	Scored int
	// DroppedOutOfOrder counts records older than the drive's newest.
	DroppedOutOfOrder int
	// DroppedDuplicate counts records re-delivered for an already
	// observed hour.
	DroppedDuplicate int
	// DroppedInvalid counts corrupt records dropped because the drive had
	// no history to repair from.
	DroppedInvalid int
	// DroppedQuarantined counts records rejected from quarantined drives.
	DroppedQuarantined int
	// Repaired counts corrupt records kept after carrying the drive's
	// last accepted values forward.
	Repaired int
	// StaleResets counts vote windows reset after telemetry blackouts.
	StaleResets int
	// QuarantineEvents counts drives entering quarantine.
	QuarantineEvents int
	// Quarantined is the number of drives currently quarantined.
	Quarantined int
}

// Add accumulates another monitor's counters into s. Fleet services that
// shard one logical population across several monitors sum the per-shard
// stats into one fleet-wide view; addition is commutative, so the result
// is independent of shard order and shard count.
func (s *MonitorStats) Add(o MonitorStats) {
	s.Observed += o.Observed
	s.Scored += o.Scored
	s.DroppedOutOfOrder += o.DroppedOutOfOrder
	s.DroppedDuplicate += o.DroppedDuplicate
	s.DroppedInvalid += o.DroppedInvalid
	s.DroppedQuarantined += o.DroppedQuarantined
	s.Repaired += o.Repaired
	s.StaleResets += o.StaleResets
	s.QuarantineEvents += o.QuarantineEvents
	s.Quarantined += o.Quarantined
}

// monitoredDrive is the per-drive sliding state and warning state.
type monitoredDrive struct {
	history     []smart.Record // bounded chronological history
	window      detect.Window  // last N valid scores
	badRun      int            // consecutive corrupt arrivals
	quarantined bool
	warned      bool           // warned since the last Resolve
	warning     MonitorWarning // the warning, re-scored while queued
	slot        int            // index in Monitor.queue; -1 when not queued
}

// NewMonitor validates the configuration and returns an empty monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	budget := cfg.BadSampleBudget
	switch {
	case budget == 0:
		budget = DefaultBadSampleBudget
	case budget < 0:
		budget = 0 // disabled
	}
	m := &Monitor{
		cfg:          cfg,
		budget:       budget,
		historyHours: cfg.Features.MaxInterval() + 2,
		x:            make([]float64, len(cfg.Features)),
		drives:       make(map[string]*monitoredDrive),
	}
	return m, nil
}

// Observe ingests one SMART record for a drive and returns the new warning
// if this observation tripped the detection rule (at most one outstanding
// warning per drive; later observations update its health in the queue).
// Records that violate the degradation policy are repaired or dropped and
// accounted in Stats; they never trip the rule and never panic.
func (m *Monitor) Observe(driveID string, rec Record) (MonitorWarning, bool) {
	m.stats.Observed++
	d := m.drives[driveID]
	if d == nil {
		d = &monitoredDrive{slot: -1}
		m.drives[driveID] = d
	}
	if d.quarantined {
		m.stats.DroppedQuarantined++
		return MonitorWarning{}, false
	}
	// Drop out-of-order and re-delivered records; SMART collectors poll
	// monotonically, so these are transport faults (retries, conflicting
	// serials), not drive state.
	if n := len(d.history); n > 0 {
		last := d.history[n-1].Hour
		if rec.Hour == last {
			m.stats.DroppedDuplicate++
			return MonitorWarning{}, false
		}
		if rec.Hour < last {
			m.stats.DroppedOutOfOrder++
			return MonitorWarning{}, false
		}
		if m.cfg.StaleAfterHours > 0 && rec.Hour-last > m.cfg.StaleAfterHours {
			// Telemetry blackout: predictions from before the gap must
			// not vote on the drive's health after it.
			d.window.Reset()
			m.stats.StaleResets++
		}
	}
	// Corrupt values consume the drive's error budget; repair what can be
	// repaired, drop what cannot, quarantine when the budget runs out.
	if rec.Hour < 0 || rec.CorruptValues() > 0 {
		d.badRun++
		if m.budget > 0 && d.badRun >= m.budget {
			d.quarantined = true
			d.history = nil
			d.window = detect.Window{}
			m.stats.QuarantineEvents++
			m.stats.Quarantined++
			m.stats.DroppedInvalid++
			return MonitorWarning{}, false
		}
		if rec.Hour < 0 || len(d.history) == 0 {
			m.stats.DroppedInvalid++
			return MonitorWarning{}, false
		}
		rec.Repair(&d.history[len(d.history)-1])
		m.stats.Repaired++
	} else {
		d.badRun = 0
	}
	d.history = append(d.history, rec)
	// Trim history past the lookback horizon, keeping the newest record
	// at or before the cutoff: across a telemetry gap it is the record a
	// change rate looks back to, exactly as over the whole trace offline.
	cutoff := rec.Hour - m.historyHours
	trim := 0
	for trim+1 < len(d.history) && d.history[trim+1].Hour <= cutoff {
		trim++
	}
	d.history = d.history[trim:]

	// Features land in the monitor's scratch buffer: it is fully
	// overwritten per observation and only its scalar score is retained,
	// so Observe stays allocation-free in steady state.
	if !m.cfg.Features.Extract(d.history, len(d.history)-1, m.x) {
		return MonitorWarning{}, false // not enough history for change rates yet
	}
	score := m.cfg.Model.Predict(m.x)
	if score != score {
		// An invalid prediction must be excluded from the window, not
		// counted as a healthy vote.
		m.stats.DroppedInvalid++
		return MonitorWarning{}, false
	}
	m.stats.Scored++

	// The window slides to the last Voters scores and trips through the
	// same rule sweep (detect.VoteAlarm / MeanAlarm) the offline scans run.
	d.window.Push(score, m.cfg.Voters)
	if !d.window.Tripped(m.cfg.Voters, m.cfg.Threshold, m.cfg.UseMean) {
		return MonitorWarning{}, false
	}
	mean := d.window.Mean()
	if d.warned {
		if d.slot >= 0 {
			d.warning.Health = mean
			heap.Fix(&m.queue, d.slot)
		}
		return MonitorWarning{}, false
	}
	d.warned = true
	d.warning = MonitorWarning{Serial: driveID, Health: mean, Hour: rec.Hour}
	heap.Push(&m.queue, d)
	return d.warning, true
}

// NextWarning pops the most urgent outstanding warning (lowest health).
func (m *Monitor) NextWarning() (MonitorWarning, bool) {
	if len(m.queue) == 0 {
		return MonitorWarning{}, false
	}
	return heap.Pop(&m.queue).(*monitoredDrive).warning, true
}

// Outstanding returns the number of unprocessed warnings.
func (m *Monitor) Outstanding() int { return len(m.queue) }

// Stats returns the ingest accounting so far.
func (m *Monitor) Stats() MonitorStats { return m.stats }

// Quarantined reports whether a drive is currently quarantined for
// exhausting its error budget. Resolve lifts the quarantine.
func (m *Monitor) Quarantined(driveID string) bool {
	d := m.drives[driveID]
	return d != nil && d.quarantined
}

// Resolve clears a drive's warning and quarantine state (after
// replacement/migration or a telemetry fix) so future observations can
// warn again. The drive's queued warning, if still unpopped, goes too.
func (m *Monitor) Resolve(driveID string) {
	d := m.drives[driveID]
	if d == nil {
		return
	}
	if d.quarantined {
		m.stats.Quarantined--
	}
	if d.slot >= 0 {
		heap.Remove(&m.queue, d.slot)
	}
	delete(m.drives, driveID)
}

// warningHeap is the Monitor's triage queue (paper §III-B): the drives
// with an unpopped warning, most urgent first. Swap keeps every drive's
// slot current, so a re-scored or resolved drive is fixed or removed in
// O(log n) without a search.
type warningHeap []*monitoredDrive

func (h warningHeap) Len() int           { return len(h) }
func (h warningHeap) Less(i, j int) bool { return moreUrgent(h[i].warning, h[j].warning) }
func (h warningHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot = i
	h[j].slot = j
}
func (h *warningHeap) Push(x any) {
	d := x.(*monitoredDrive)
	d.slot = len(*h)
	*h = append(*h, d)
}
func (h *warningHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1] = nil
	d.slot = -1
	*h = old[:n-1]
	return d
}

// moreUrgent orders warnings as health.Queue does: lower health first,
// older warnings first on ties.
//
//hddlint:floatcmp a tie in stored health degrees falls through to the raise hour; any other order would depend on heap history
func moreUrgent(a, b MonitorWarning) bool {
	if a.Health != b.Health {
		return a.Health < b.Health
	}
	return a.Hour < b.Hour
}
