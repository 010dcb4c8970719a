package hddcart

import (
	"errors"
	"fmt"
	"slices"
	"strings"

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
	if iv := cfg.Features.MaxInterval(); iv > maxMonitorInterval {
		return fmt.Errorf("hddcart: monitor change-rate interval %d h exceeds %d h", iv, maxMonitorInterval)
	}
	return nil
}

// Monitor watches a drive population online. Feed every new SMART record
// through Observe; the monitor extracts features (including change rates
// against the drive's retained history), scores them, applies the
// configured detection rule and returns a warning the first time a drive
// trips it. Observe's return is the monitor's only warning output: a
// caller that triages by health degree (paper §III-B) pushes each warning
// into a WarningQueue.
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
// Per-drive state lives in slabs indexed by a slot number: a ring of the
// feature plan's columns for the retained records, the last Voters
// scores and a small fixed record. Observe allocates nothing once a
// drive has a slot; Resolve returns the slot to a free list.
//
// Monitor is not safe for concurrent use; wrap it with a mutex if needed.
type Monitor struct {
	cfg          MonitorConfig
	plan         *smart.Plan
	budget       int       // resolved BadSampleBudget (0 = disabled)
	historyHours int       // per-drive retention: the deepest change-rate interval + 2 h
	ringRows     int       // ring rows per drive: the retention plus the current row
	x            []float64 // feature scratch, reused across Observe calls

	slotOf map[string]uint32
	free   []uint32 // resolved slots, reused before the slabs grow
	drives []driveState
	hours  []int     // ringRows per slot
	vals   []float64 // ringRows·len(plan.Cols) per slot
	scores []float64 // Voters per slot: the vote window, oldest first
	stats  MonitorStats
}

// MonitorWarning is the warning Observe returns when a drive trips the
// detection rule.
type MonitorWarning struct {
	// Serial identifies the drive.
	Serial string
	// Health is the vote window's mean score when the rule tripped: the
	// predicted health degree (lower = more urgent).
	Health float64
	// Hour is the hour of the record that tripped the rule.
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

// maxMonitorInterval bounds the deepest change-rate interval a Monitor
// accepts: every drive holds a ring of that many hourly rows, so an
// interval of years would cost megabytes per drive.
const maxMonitorInterval = 1 << 16

// driveState is one slot's fixed-size record. The slot's ring holds
// rows of its retained records, chronological from row head (mod
// ringRows); its window holds the last nscores valid scores.
type driveState struct {
	serial      string
	badRun      int   // consecutive corrupt arrivals
	head, rows  int32 // ring start and length
	nscores     int32 // scores in the window
	live        bool  // the slot holds a drive (false once resolved)
	quarantined bool
	warned      bool // warned since the last Resolve
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
		plan:         cfg.Features.Compile(),
		budget:       budget,
		historyHours: cfg.Features.MaxInterval() + 2,
		ringRows:     cfg.Features.MaxInterval() + 3,
		x:            make([]float64, len(cfg.Features)),
		slotOf:       make(map[string]uint32),
	}
	return m, nil
}

// rowsOf returns slot s's ring as smart.Rows.
func (m *Monitor) rowsOf(s uint32) smart.Rows {
	r, nc := m.ringRows, len(m.plan.Cols)
	lo := int(s) * r
	d := &m.drives[s]
	return smart.Rows{
		Hours: m.hours[lo : lo+r],
		Vals:  m.vals[lo*nc : (lo+r)*nc],
		Head:  int(d.head),
		Len:   int(d.rows),
	}
}

// window returns slot s's vote window: its scores, with capacity Voters.
func (m *Monitor) window(s uint32) detect.Window {
	v := m.cfg.Voters
	lo := int(s) * v
	return detect.Window{Scores: m.scores[lo : lo+int(m.drives[s].nscores) : lo+v]}
}

// newSlot gives serial a slot: a resolved one if any, else a new one at
// the end of every slab.
func (m *Monitor) newSlot(serial string) uint32 {
	serial = strings.Clone(serial) // never pin a caller's larger buffer
	var s uint32
	if n := len(m.free); n > 0 {
		s = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		s = uint32(len(m.drives))
		m.drives = append(m.drives, driveState{})
		m.hours = grow(m.hours, m.ringRows)
		m.vals = grow(m.vals, m.ringRows*len(m.plan.Cols))
		m.scores = grow(m.scores, m.cfg.Voters)
	}
	m.drives[s] = driveState{serial: serial, live: true}
	m.slotOf[serial] = s
	return s
}

// grow extends s by n elements.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s, n)[:len(s)+n]
}

// Observe ingests one SMART record for a drive and returns a warning if
// this observation tripped the detection rule and the drive has not
// warned since it was last resolved: each drive warns at most once until
// Resolve. Records that violate the degradation policy are repaired or
// dropped and accounted in Stats; they never trip the rule and never
// panic.
func (m *Monitor) Observe(driveID string, rec Record) (MonitorWarning, bool) {
	m.stats.Observed++
	s, ok := m.slotOf[driveID]
	if !ok {
		s = m.newSlot(driveID)
	}
	d := &m.drives[s]
	if d.quarantined {
		m.stats.DroppedQuarantined++
		return MonitorWarning{}, false
	}
	rows := m.rowsOf(s)
	// Drop out-of-order and re-delivered records; SMART collectors poll
	// monotonically, so these are transport faults (retries, conflicting
	// serials), not drive state.
	last := -1 // physical row of the newest record
	if rows.Len > 0 {
		last = rows.Phys(rows.Len - 1)
		lastHour := rows.Hours[last]
		if rec.Hour == lastHour {
			m.stats.DroppedDuplicate++
			return MonitorWarning{}, false
		}
		if rec.Hour < lastHour {
			m.stats.DroppedOutOfOrder++
			return MonitorWarning{}, false
		}
		if m.cfg.StaleAfterHours > 0 && rec.Hour-lastHour > m.cfg.StaleAfterHours {
			// Telemetry blackout: predictions from before the gap must
			// not vote on the drive's health after it.
			d.nscores = 0
			m.stats.StaleResets++
		}
	}
	// Corrupt values consume the drive's error budget; repair what can be
	// repaired, drop what cannot, quarantine when the budget runs out.
	repair := rec.Hour < 0 || rec.CorruptValues() > 0
	if repair {
		d.badRun++
		if m.budget > 0 && d.badRun >= m.budget {
			d.quarantined = true
			d.head, d.rows, d.nscores = 0, 0, 0
			m.stats.QuarantineEvents++
			m.stats.Quarantined++
			m.stats.DroppedInvalid++
			return MonitorWarning{}, false
		}
		if rec.Hour < 0 || rows.Len == 0 {
			m.stats.DroppedInvalid++
			return MonitorWarning{}, false
		}
		m.stats.Repaired++
	} else {
		d.badRun = 0
	}
	// Trim rows past the lookback horizon, keeping the newest row at or
	// before the cutoff: across a telemetry gap it is the row a change
	// rate looks back to, exactly as over the whole trace offline. What
	// remains spans at most historyHours-1 hours before this record, so
	// the ring always has room for it.
	cutoff := rec.Hour - m.historyHours
	for rows.Len > 1 && rows.Hours[rows.Phys(1)] <= cutoff {
		rows.Head = rows.Phys(1)
		rows.Len--
	}
	nc := len(m.plan.Cols)
	p := rows.Phys(rows.Len)
	row := rows.Vals[p*nc : p*nc+nc]
	if repair {
		m.plan.Repair(row, rows.Vals[last*nc:last*nc+nc], &rec)
	} else {
		m.plan.Gather(row, &rec)
	}
	rows.Hours[p] = rec.Hour
	rows.Len++
	d.head, d.rows = int32(rows.Head), int32(rows.Len)

	// Features land in the monitor's scratch buffer: it is fully
	// overwritten per observation and only its scalar score is retained.
	if !m.plan.Extract(m.x, &rows, rows.Len-1) {
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
	w := m.window(s)
	w.Push(score, m.cfg.Voters)
	d.nscores = int32(len(w.Scores))
	if d.warned || !w.Tripped(m.cfg.Voters, m.cfg.Threshold, m.cfg.UseMean) {
		return MonitorWarning{}, false
	}
	d.warned = true
	return MonitorWarning{Serial: d.serial, Health: w.Mean(), Hour: rec.Hour}, true
}

// Stats returns the ingest accounting so far.
func (m *Monitor) Stats() MonitorStats { return m.stats }

// Quarantined reports whether a drive is currently quarantined for
// exhausting its error budget. Resolve lifts the quarantine.
func (m *Monitor) Quarantined(driveID string) bool {
	s, ok := m.slotOf[driveID]
	return ok && m.drives[s].quarantined
}

// Resolve forgets a drive (after replacement/migration or a telemetry
// fix): its warned and quarantine state, rows and vote window go, so
// future observations start it afresh and can warn again. Its slot is
// freed for the next new drive.
func (m *Monitor) Resolve(driveID string) {
	s, ok := m.slotOf[driveID]
	if !ok {
		return
	}
	d := &m.drives[s]
	if d.quarantined {
		m.stats.Quarantined--
	}
	delete(m.slotOf, driveID)
	m.drives[s] = driveState{}
	m.free = append(m.free, s)
}
