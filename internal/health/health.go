// Package health implements the paper's health-degree machinery (§III-B,
// §V-C): personalized deterioration windows derived from a first-pass CT
// model, and a priority queue that orders warnings by predicted health
// (worst first) so operators handle the drives closest to failure first.
// It is the repository's one health ordering: callers of the online
// Monitor triage by pushing the warnings Observe returns into a Queue.
package health

import (
	"container/heap"
	"errors"

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
// warnings to work through: warnings are pushed and popped, never
// re-scored or withdrawn in place. The zero value is ready to use. Queue
// is not safe for concurrent use.
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
