// Package health implements the paper's health-degree machinery (§III-B,
// §V-C): personalized deterioration windows derived from a first-pass CT
// model, a priority queue that orders warnings by predicted health (worst
// first), and a triage simulation over that queue quantifying why
// ordering warnings by health degree reduces processing cost. It is the
// repository's one health ordering: callers of the online Monitor triage
// by pushing the warnings Observe returns into a Queue.
package health

import (
	"container/heap"
	"errors"
	"sort"

	"hddcart/internal/detect"
)

// DefaultWindowHours is the fallback deterioration window for failed
// drives the first-pass model missed (the paper uses 24 h).
const DefaultWindowHours = 24

// PersonalizedWindows derives per-drive deterioration windows w_d by
// applying a trained first-pass detector to each failed training drive's
// series: w_d is the achieved time in advance (§III-B, Eq. 6). Drives the
// detector misses are absent from the result (callers fall back to
// DefaultWindowHours).
//
// series maps drive ID to its chronological sample series; failHours maps
// drive ID to its failure instant.
func PersonalizedWindows(d detect.Detector, series map[int]detect.Series, failHours map[int]int) (map[int]int, error) {
	if d == nil {
		return nil, errors.New("health: nil detector")
	}
	out := make(map[int]int, len(series))
	for id, s := range series {
		fh, ok := failHours[id]
		if !ok {
			return nil, errors.New("health: series without fail hour")
		}
		res := detect.Scan(d, s, fh)
		if res.Alarmed && res.LeadHours > 0 {
			out[id] = res.LeadHours
		}
	}
	return out, nil
}

// Warning is one outstanding drive-failure warning.
type Warning struct {
	// Drive identifies the drive.
	Drive int
	// Health is the predicted health degree in [−1, +1]; lower is closer
	// to failure.
	Health float64
	// Hour is when the warning was raised.
	Hour int
}

// Queue is a priority queue of warnings ordered by health degree, worst
// (lowest) first; ties break on older warnings. It holds a fixed set of
// warnings to work through, as Triage does: warnings are pushed and
// popped, never re-scored or withdrawn in place. The zero value is ready
// to use. Queue is not safe for concurrent use.
type Queue struct {
	h warningHeap
}

// Len returns the number of outstanding warnings.
func (q *Queue) Len() int { return len(q.h) }

// Push adds a warning.
func (q *Queue) Push(w Warning) { heap.Push(&q.h, w) }

// Pop removes and returns the most urgent warning; ok is false when empty.
func (q *Queue) Pop() (Warning, bool) {
	if len(q.h) == 0 {
		return Warning{}, false
	}
	return heap.Pop(&q.h).(Warning), true
}

// Peek returns the most urgent warning without removing it.
func (q *Queue) Peek() (Warning, bool) {
	if len(q.h) == 0 {
		return Warning{}, false
	}
	return q.h[0], true
}

// warningHeap implements heap.Interface.
type warningHeap []Warning

func (h warningHeap) Len() int { return len(h) }
func (h warningHeap) Less(i, j int) bool {
	if h[i].Health != h[j].Health {
		return h[i].Health < h[j].Health
	}
	return h[i].Hour < h[j].Hour
}
func (h warningHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *warningHeap) Push(x any)   { *h = append(*h, x.(Warning)) }
func (h *warningHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TriageWarning is one warning fed to the triage simulation, together with
// ground truth for scoring.
type TriageWarning struct {
	Warning
	// WillFail reports whether the drive really fails (false alarm
	// otherwise).
	WillFail bool
	// FailHour is the true failure instant (ignored unless WillFail).
	FailHour int
}

// TriageResult summarizes a triage simulation run.
type TriageResult struct {
	// Processed counts warnings handled before their deadline.
	Processed int
	// SavedFailures counts truly failing drives migrated before failure.
	SavedFailures int
	// LostFailures counts truly failing drives that failed before being
	// handled.
	LostFailures int
	// WastedWork counts false alarms processed.
	WastedWork int
}

// Triage simulates an operations team working through warnings with a
// fixed processing capacity (drives per hour). Policy "health" pops the
// priority queue (worst health first); policy "fifo" processes in arrival
// order. Handling a truly failing drive before its failure hour saves it.
//
// The simulation is the quantitative backing for the paper's claim that a
// health-degree ordering lets a storage system "deal with warnings in
// order of their health degrees to reduce processing overhead": with tight
// capacity the health policy saves more drives from the same warning
// stream.
func Triage(warnings []TriageWarning, perHour int, healthPolicy bool) (TriageResult, error) {
	if perHour <= 0 {
		return TriageResult{}, errors.New("health: capacity must be positive")
	}
	sorted := append([]TriageWarning(nil), warnings...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Hour < sorted[j].Hour })

	var res TriageResult
	var q Queue
	fifo := make([]TriageWarning, 0, len(sorted))
	byDrive := make(map[int]TriageWarning, len(sorted))
	next := 0
	hour := 0
	if len(sorted) > 0 {
		hour = sorted[0].Hour
	}
	pending := func() int { return len(fifo) + q.Len() }
	for next < len(sorted) || pending() > 0 {
		// Admit warnings that have arrived by this hour.
		for next < len(sorted) && sorted[next].Hour <= hour {
			w := sorted[next]
			byDrive[w.Drive] = w
			if healthPolicy {
				q.Push(w.Warning)
			} else {
				fifo = append(fifo, w)
			}
			next++
		}
		// Process up to perHour warnings this hour.
		for c := 0; c < perHour && pending() > 0; c++ {
			var tw TriageWarning
			if healthPolicy {
				w, _ := q.Pop()
				tw = byDrive[w.Drive]
			} else {
				tw = fifo[0]
				fifo = fifo[1:]
			}
			if tw.WillFail && hour >= tw.FailHour {
				res.LostFailures++
				continue
			}
			res.Processed++
			if tw.WillFail {
				res.SavedFailures++
			} else {
				res.WastedWork++
			}
		}
		hour++
		// Drives that failed while still queued are lost; account for
		// them lazily when popped (above) — but if the queue drains
		// only after all arrivals, the loop still terminates because
		// every element is popped exactly once.
	}
	return res, nil
}
