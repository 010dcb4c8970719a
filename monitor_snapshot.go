package hddcart

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"hddcart/internal/detect"
	"hddcart/internal/smart"
)

// MonitorSnapshotVersion is the on-disk version of the monitor snapshot
// format. Restores reject any other version: the state is vote windows
// and quarantine flags, where a silent misread costs missed failures, so
// an unknown layout falls back to cold start rather than a guess.
const MonitorSnapshotVersion = 1

// monitorSnapshot is the serialized form of a Monitor's mutable state.
// The config block is a fingerprint, not a restore source: a snapshot
// only makes sense under the detection rule that produced it, so
// RestoreSnapshot refuses a snapshot whose fingerprint differs from the
// target monitor's configuration.
type monitorSnapshot struct {
	Version int `json:"version"`

	// Config fingerprint.
	Voters          int     `json:"voters"`
	Threshold       float64 `json:"threshold"`
	UseMean         bool    `json:"use_mean,omitempty"`
	Features        int     `json:"features"`
	HistoryHours    int     `json:"history_hours"`
	StaleAfterHours int     `json:"stale_after_hours,omitempty"`
	BadSampleBudget int     `json:"bad_sample_budget"`
	// Binned marks a snapshot written by a monitor that scored in code
	// space. Monitors score float rows only, so it is never written, and
	// a snapshot carrying it is refused.
	Binned bool `json:"binned,omitempty"`

	// Mutable state, each list sorted by serial so encoding is a pure
	// function of monitor state: two monitors with equal state produce
	// byte-identical snapshots. Warned and Queue name drives in Drives;
	// a drive is queued at most once, and only if warned.
	Drives []driveSnapshot  `json:"drives"`
	Warned []string         `json:"warned,omitempty"`
	Queue  []MonitorWarning `json:"queue,omitempty"`
	Stats  MonitorStats     `json:"stats"`
}

// driveSnapshot is one drive's sliding state.
type driveSnapshot struct {
	Serial      string         `json:"serial"`
	History     []smart.Record `json:"history,omitempty"`
	Scores      []float64      `json:"scores,omitempty"`
	Votes       int            `json:"votes,omitempty"`
	BadRun      int            `json:"bad_run,omitempty"`
	Quarantined bool           `json:"quarantined,omitempty"`
}

// EncodeSnapshot writes the monitor's complete mutable state — per-drive
// history and vote windows, quarantine flags, the warned set, the triage
// queue and the ingest accounting — as versioned JSON. The encoding is
// deterministic (drives, warned serials and queue entries are emitted in
// sorted order), so equal monitor states encode byte-identically and a
// snapshot diff is a state diff. Scores and thresholds round-trip
// exactly: encoding/json emits the shortest representation that parses
// back to the same float64.
func (m *Monitor) EncodeSnapshot(w io.Writer) error {
	snap := monitorSnapshot{
		Version:         MonitorSnapshotVersion,
		Voters:          m.cfg.Voters,
		Threshold:       m.cfg.Threshold,
		UseMean:         m.cfg.UseMean,
		Features:        len(m.cfg.Features),
		HistoryHours:    m.historyHours,
		StaleAfterHours: m.cfg.StaleAfterHours,
		BadSampleBudget: m.budget,
		Drives:          make([]driveSnapshot, 0, len(m.drives)),
		Stats:           m.stats,
	}
	serials := make([]string, 0, len(m.drives))
	for serial := range m.drives {
		serials = append(serials, serial)
	}
	sort.Strings(serials)
	for _, serial := range serials {
		d := m.drives[serial]
		snap.Drives = append(snap.Drives, driveSnapshot{
			Serial:      serial,
			History:     d.history,
			Scores:      d.window.Scores,
			Votes:       votesBelow(d.window.Scores, m.cfg.Threshold),
			BadRun:      d.badRun,
			Quarantined: d.quarantined,
		})
		if d.warned {
			snap.Warned = append(snap.Warned, serial)
		}
		if d.slot >= 0 {
			snap.Queue = append(snap.Queue, d.warning)
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("hddcart: encode monitor snapshot: %w", err)
	}
	return nil
}

// RestoreSnapshot loads a snapshot produced by EncodeSnapshot into a
// freshly constructed monitor, resuming every drive's vote window,
// history, quarantine state and the warning queue exactly where the
// encoding monitor left off: a restored monitor fed the remainder of a
// stream emits byte-identical warnings to one that never stopped.
//
// The target must be unused (nothing observed) and configured with the
// same detection rule as the snapshot's fingerprint; any version,
// fingerprint or decode mismatch, and any warned or queued serial that
// does not match the drive list (an unknown drive, a queued drive that
// was never warned, a drive queued twice), and any vote window holding
// more than Voters scores or a vote count its scores do not give, is an
// error and leaves the monitor empty, so callers can fall back to a
// counted cold start.
func (m *Monitor) RestoreSnapshot(r io.Reader) error {
	if m.stats.Observed != 0 || len(m.drives) != 0 {
		return fmt.Errorf("hddcart: restore onto a used monitor (%d observed)", m.stats.Observed)
	}
	var snap monitorSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("hddcart: decode monitor snapshot: %w", err)
	}
	if snap.Version != MonitorSnapshotVersion {
		return fmt.Errorf("hddcart: monitor snapshot version %d, want %d", snap.Version, MonitorSnapshotVersion)
	}
	if err := m.checkFingerprint(&snap); err != nil {
		return err
	}
	for i := range snap.Drives {
		ds := &snap.Drives[i]
		if ds.Serial == "" {
			m.reset()
			return fmt.Errorf("hddcart: monitor snapshot drive %d has no serial", i)
		}
		if _, dup := m.drives[ds.Serial]; dup {
			m.reset()
			return fmt.Errorf("hddcart: monitor snapshot repeats drive %q", ds.Serial)
		}
		if err := m.checkWindow(ds); err != nil {
			m.reset()
			return err
		}
		m.drives[ds.Serial] = &monitoredDrive{
			history:     ds.History,
			window:      detect.Window{Scores: ds.Scores},
			badRun:      ds.BadRun,
			quarantined: ds.Quarantined,
			slot:        -1,
		}
	}
	for _, serial := range snap.Warned {
		d := m.drives[serial]
		if d == nil {
			m.reset()
			return fmt.Errorf("hddcart: monitor snapshot warns unknown drive %q", serial)
		}
		d.warned = true
	}
	for _, w := range snap.Queue {
		d := m.drives[w.Serial]
		var err error
		switch {
		case d == nil:
			err = fmt.Errorf("hddcart: monitor snapshot queues unknown drive %q", w.Serial)
		case !d.warned:
			err = fmt.Errorf("hddcart: monitor snapshot queues unwarned drive %q", w.Serial)
		case d.slot >= 0:
			err = fmt.Errorf("hddcart: monitor snapshot queues drive %q twice", w.Serial)
		}
		if err != nil {
			m.reset()
			return err
		}
		d.warning = w
		heap.Push(&m.queue, d)
	}
	m.stats = snap.Stats
	return nil
}

// checkFingerprint rejects snapshots taken under a different detection
// configuration than the restoring monitor's.
func (m *Monitor) checkFingerprint(snap *monitorSnapshot) error {
	switch {
	case snap.Voters != m.cfg.Voters:
		return fmt.Errorf("hddcart: snapshot voters %d, monitor has %d", snap.Voters, m.cfg.Voters)
	case !sameThreshold(snap.Threshold, m.cfg.Threshold):
		return fmt.Errorf("hddcart: snapshot threshold %v, monitor has %v", snap.Threshold, m.cfg.Threshold)
	case snap.UseMean != m.cfg.UseMean:
		return fmt.Errorf("hddcart: snapshot use_mean %v, monitor has %v", snap.UseMean, m.cfg.UseMean)
	case snap.Features != len(m.cfg.Features):
		return fmt.Errorf("hddcart: snapshot has %d features, monitor has %d", snap.Features, len(m.cfg.Features))
	case snap.HistoryHours != m.historyHours:
		return fmt.Errorf("hddcart: snapshot history %d h, monitor has %d h", snap.HistoryHours, m.historyHours)
	case snap.StaleAfterHours != m.cfg.StaleAfterHours:
		return fmt.Errorf("hddcart: snapshot stale timeout %d h, monitor has %d h", snap.StaleAfterHours, m.cfg.StaleAfterHours)
	case snap.BadSampleBudget != m.budget:
		return fmt.Errorf("hddcart: snapshot error budget %d, monitor has %d", snap.BadSampleBudget, m.budget)
	case snap.Binned:
		return errors.New("hddcart: snapshot binned true, monitor scores float rows")
	}
	return nil
}

// checkWindow rejects a drive whose vote window could not have come from
// this monitor: more scores than the window holds, or a vote count that
// disagrees with its scores. The count is redundant with the scores (it
// is written for format compatibility), so a mismatch means corruption.
func (m *Monitor) checkWindow(ds *driveSnapshot) error {
	if len(ds.Scores) > m.cfg.Voters {
		return fmt.Errorf("hddcart: monitor snapshot drive %q holds %d scores, window is %d", ds.Serial, len(ds.Scores), m.cfg.Voters)
	}
	if want := votesBelow(ds.Scores, m.cfg.Threshold); ds.Votes != want {
		return fmt.Errorf("hddcart: monitor snapshot drive %q has %d votes, its scores give %d", ds.Serial, ds.Votes, want)
	}
	return nil
}

// votesBelow counts the scores below threshold: the failed votes of a
// window.
func votesBelow(scores []float64, threshold float64) int {
	votes := 0
	for _, s := range scores {
		if s < threshold {
			votes++
		}
	}
	return votes
}

// sameThreshold reports whether a snapshot's threshold equals the
// monitor's configured one.
//
//hddlint:floatcmp both sides are copies of the same configured constant, never the result of arithmetic, so equality tests config identity
func sameThreshold(a, b float64) bool { return a == b }

// reset drops any partially restored state so a failed restore leaves
// the monitor cold rather than half-loaded.
func (m *Monitor) reset() {
	m.drives = make(map[string]*monitoredDrive)
	m.queue = nil
	m.stats = MonitorStats{}
}
