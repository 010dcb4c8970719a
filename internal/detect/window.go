package detect

// Window is the incremental per-drive detection state of the online
// paths: the root Monitor (and through it every serve shard) pushes one
// valid score per accepted sample and asks whether the paper's detection
// rule tripped. It keeps only the last ≤ n scores; the rule itself is
// VoteAlarm or MeanAlarm run over them, so a drive observed online
// alarms at the same sample it would in an offline scan.
//
// The caller owns NaN exclusion (invalid predictions must not be
// pushed) and must use one fixed (n, threshold) pair per window; both
// are parameters rather than fields so the state is just the scores and
// serializes trivially.
type Window struct {
	// Scores holds the last ≤ n valid scores, oldest first.
	Scores []float64
}

// Push appends a valid score and slides the window to the last n
// scores. n must be ≥ 1. A full window shifts in place, so a window
// whose Scores has capacity n never reallocates.
func (w *Window) Push(score float64, n int) {
	if len(w.Scores) < n {
		w.Scores = append(w.Scores, score)
		return
	}
	w.Scores = w.Scores[len(w.Scores)-n:]
	copy(w.Scores, w.Scores[1:])
	w.Scores[n-1] = score
}

// Mean returns the mean of the windowed scores (NaN when empty), summed
// by windowSum exactly as the mean rule sums a full window.
func (w *Window) Mean() float64 {
	return windowSum(w.Scores) / float64(len(w.Scores))
}

// Tripped reports whether the window holds n scores and the detection
// rule fires on its newest one: MeanAlarm with useMean (paper §V-C),
// VoteAlarm otherwise (§V-A3). Over exactly n valid scores a sweep can
// only alarm at index n-1, so this is the offline rule's verdict at the
// sample just pushed.
func (w *Window) Tripped(n int, threshold float64, useMean bool) bool {
	if len(w.Scores) != n {
		return false
	}
	alarm := VoteAlarm
	if useMean {
		alarm = MeanAlarm
	}
	idx, _ := alarm(w.Scores, n, threshold)
	return idx == n-1
}
