package detect

// The detectors interleave scoring with a NaN-excluding window sweep so
// an early alarm stops scoring the rest of a series. The sweep state
// lives here, shared with the fleet sweep (internal/sweep, through
// VoteAlarm and MeanAlarm): valid scores are compacted in place into
// scores[:m] as the sweep advances (m never catches up with the chunk
// being scored), so the window arithmetic runs on valid samples only
// while the alarm index stays in series coordinates. Keeping one
// implementation is what makes the fleet sweep's alarm indexes identical
// to the detectors' by construction rather than by parallel maintenance.

// votingSweep is the voting-window state: alarm at the first index where
// more than n/2 of the last n valid scores fall below threshold.
type votingSweep struct {
	scores    []float64
	threshold float64
	n         int
	votes     int
	m         int
}

// feed sweeps scores[lo:hi] (just scored by the model) and returns the
// alarm index, or -1 to continue with the next chunk.
func (sw *votingSweep) feed(lo, hi int) int {
	idx, m, votes := voteFeed(sw.scores, sw.threshold, sw.n, sw.m, sw.votes, lo, hi)
	sw.m, sw.votes = m, votes
	return idx
}

// voteFeed is the voting sweep over explicit state: feed's body lifted
// to a free function so the per-drive whole-series sweeps (VoteAlarm)
// run it without materializing a votingSweep on the stack — the struct
// build-and-copy around the method call costs more than a short series'
// sweep. Returns the alarm index (or -1) plus the advanced cursor state.
//
//hddlint:noalloc //hddlint:nobc
func voteFeed(buf []float64, thr float64, n, m0, votes0, lo, hi int) (idx, m, votes int) {
	// The sweep is ~1/5 of fleet-scan time, so the loop keeps its state in
	// locals (the compiler would otherwise spill every sw field store) and
	// writes back only at the exits. Reslicing to hi makes the loop bound
	// the slice length, and the lo clamp proves the read index
	// non-negative; together they kill the checks on every i/j-indexed
	// load. The reslice keeps its own one-per-call check — it is the guard
	// that validates hi against the buffer.
	if lo < 0 {
		lo = 0
	}
	//hddlint:ignore bcecheck the reslice is the per-call hi guard; one check per feed, none per sample
	scores := buf[:hi]
	m, votes = m0, votes0
	// Bulk skip: across a run of ≥ n clean non-fails (s ≥ thr excludes
	// fails and NaN alike), the vote count only decays, so if the window
	// enters the run below alarm level (2·votes ≤ n) no alarm can fire
	// inside it, and the window leaves holding n clean samples: m jumps to
	// the run's end, votes to 0. That replaces the full sweep with one
	// predictable compare per sample on healthy stretches — which dominate
	// a fleet — while fail clusters take the exact per-sample path. The
	// skip needs m == i (no NaN was ever compacted away, so window
	// positions equal series positions); tryBulk stops a short clean gap
	// from being re-scanned once per sample between two fails.
	tryBulk := true
	i := lo
	for i < hi {
		if tryBulk && m == i && 2*votes <= n {
			j := i
			// The i = j hop below makes i and j mutually-recursive φs, which
			// defeats prove's constant-step induction (verified: even a
			// range-over-subslice rewrite keeps the check), so the two loads
			// on this path carry their checks by justified exception.
			//hddlint:ignore bcecheck lo ≤ i ≤ j < hi; the i=j hop is beyond prove's induction
			for j < hi && scores[j] >= thr {
				j++
			}
			if j-i >= n {
				m, votes = j, 0
				i = j
				continue
			}
			tryBulk = false
		}
		//hddlint:ignore bcecheck lo ≤ i < hi; same mutually-recursive induction limit as the bulk scan
		s := scores[i]
		i++
		if s != s {
			continue // invalid prediction: excluded, not counted
		}
		// The compaction cursor trails the read index (m ≤ i < hi always:
		// m advances at most once per sample), an invariant the prove pass
		// cannot see, so the m-indexed stores keep their checks.
		//hddlint:ignore bcecheck m ≤ i < hi is a sweep invariant invisible to the prove pass
		scores[m] = s
		m++
		if s < thr {
			votes++
			tryBulk = true // the blocking fail is behind us now
		}
		//hddlint:ignore bcecheck m-n-1 < m ≤ hi is the same cursor invariant
		if m > n && scores[m-n-1] < thr {
			votes--
		}
		if m >= n && 2*votes > n {
			return i - 1, m, votes
		}
	}
	return -1, m, votes
}

// meanSweep is the health-degree state: alarm at the first index where
// the mean of the last n valid scores drops below threshold.
type meanSweep struct {
	scores    []float64
	threshold float64
	n         int
	cnt       int
}

// feed sweeps scores[lo:hi] and returns the alarm index, or -1.
func (sw *meanSweep) feed(lo, hi int) int {
	idx, cnt := meanFeed(sw.scores, sw.threshold, sw.n, sw.cnt, lo, hi)
	sw.cnt = cnt
	return idx
}

// meanFeed is the mean sweep over explicit state, lifted out of the
// method for the same per-drive call economy as voteFeed. Each full
// window is summed fresh, oldest first, exactly as Window.Mean sums it:
// a rolling sum would carry the rounding of scores that have left the
// window, and the offline sweep could then alarm at a sample where the
// online Monitor does not (or the other way round).
//
//hddlint:noalloc //hddlint:nobc
func meanFeed(buf []float64, thr float64, n, cnt0, lo, hi int) (idx, cnt int) {
	// Resliced to hi (and lo clamped) for the same bounds-check elision
	// as voteFeed.
	if lo < 0 {
		lo = 0
	}
	//hddlint:ignore bcecheck the reslice is the per-call hi guard; one check per feed, none per sample
	scores := buf[:hi]
	cnt = cnt0
	for i := lo; i < hi; i++ {
		s := scores[i]
		if s != s {
			continue // invalid prediction: excluded, not counted
		}
		// cnt trails i exactly as votingSweep's m does.
		//hddlint:ignore bcecheck cnt ≤ i < hi is a sweep invariant invisible to the prove pass
		scores[cnt] = s
		cnt++
		if cnt < n {
			continue
		}
		sum := 0.0
		//hddlint:ignore bcecheck 0 ≤ cnt-n < cnt ≤ hi is the same cursor invariant
		for _, v := range scores[cnt-n : cnt] {
			sum += v
		}
		if sum/float64(n) < thr {
			return i, cnt
		}
	}
	return -1, cnt
}

// VoteAlarm sweeps one fully scored series through the voting window
// state machine and returns the alarm index in series coordinates (-1 =
// no alarm) plus the number of NaN scores the sweep excluded before
// stopping. It is exactly Voting.Detect's sweep on a pre-scored series —
// a single feed over the whole slice is bit-identical to the detector's
// chunked feeds — exported so internal/sweep can score whole work items
// through the tiled kernels and still alarm at the same indexes. voters < 1 acts as 1, as the detectors do. scores is mutated:
// valid samples are compacted toward the front as the sweep advances.
func VoteAlarm(scores []float64, voters int, threshold float64) (idx, excluded int) {
	if voters < 1 {
		voters = 1
	}
	idx, m, _ := voteFeed(scores, threshold, voters, 0, 0, 0, len(scores))
	swept := len(scores)
	if idx >= 0 {
		swept = idx + 1
	}
	return idx, swept - m
}

// MeanAlarm is VoteAlarm for the health-degree (mean-threshold) sweep:
// alarm at the first index where the mean of the last voters valid
// scores drops below threshold, bit-identical to MeanThreshold.Detect on
// the same scores. scores is mutated as in
// VoteAlarm.
func MeanAlarm(scores []float64, voters int, threshold float64) (idx, excluded int) {
	if voters < 1 {
		voters = 1
	}
	idx, cnt := meanFeed(scores, threshold, voters, 0, 0, len(scores))
	swept := len(scores)
	if idx >= 0 {
		swept = idx + 1
	}
	return idx, swept - cnt
}
