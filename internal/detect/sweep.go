package detect

import "math"

// The paper's two detection rules are implemented once each, here, as
// whole-series sweeps over scores the caller has already produced. Every
// path alarms through them: the float detectors (Voting, MeanThreshold,
// MultiVoting) over a pooled score buffer, the fleet sweep
// (internal/sweep) over each drive's tiled score segment, and the online
// Window over its last n scores. Valid scores are compacted in place into
// scores[:m] as a sweep advances (m never passes the read index), so the
// window arithmetic runs on valid samples only while the alarm index
// stays in series coordinates. One implementation is what makes every
// path's alarm index identical by construction rather than by parallel
// maintenance.

// VoteAlarm sweeps one fully scored series through the voting rule
// (§V-A3) and returns the first index where more than voters/2 of the
// last voters valid scores fall below threshold (-1 = no alarm), plus
// the number of NaN scores the sweep excluded before stopping. voters <
// 1 acts as 1, as the detectors do. scores is mutated: valid samples are
// compacted toward the front as the sweep advances.
//
//hddlint:noalloc //hddlint:nobc
func VoteAlarm(scores []float64, voters int, threshold float64) (idx, excluded int) {
	n := max(voters, 1)
	// The sweep is ~1/5 of fleet-scan time, so the loop keeps its whole
	// state in locals.
	m, votes := 0, 0
	// Bulk skip: across a run of ≥ n clean non-fails (s ≥ threshold
	// excludes fails and NaN alike), the vote count only decays, so if the
	// window enters the run below alarm level (2·votes ≤ n) no alarm can
	// fire inside it, and the window leaves holding n clean samples: m
	// jumps to the run's end, votes to 0. That replaces the full sweep with
	// one predictable compare per sample on healthy stretches — which
	// dominate a fleet — while fail clusters take the exact per-sample
	// path. The skip needs m == i (no NaN was ever compacted away, so
	// window positions equal series positions); tryBulk stops a short
	// clean gap from being re-scanned once per sample between two fails.
	tryBulk := true
	i := 0
	for i < len(scores) {
		if tryBulk && m == i && 2*votes <= n {
			j := i
			// The i = j hop below makes i and j mutually-recursive φs, which
			// defeats prove's constant-step induction (verified: even a
			// range-over-subslice rewrite keeps the check), so the two loads
			// on this path carry their checks by justified exception.
			//hddlint:ignore bcecheck 0 ≤ i ≤ j < len; the i=j hop is beyond prove's induction
			for j < len(scores) && scores[j] >= threshold {
				j++
			}
			if j-i >= n {
				m, votes = j, 0
				i = j
				continue
			}
			tryBulk = false
		}
		//hddlint:ignore bcecheck 0 ≤ i < len; same mutually-recursive induction limit as the bulk scan
		s := scores[i]
		i++
		if s != s {
			continue // invalid prediction: excluded, not counted
		}
		// The compaction cursor trails the read index (m < i ≤ len always:
		// m advances at most once per sample), an invariant the prove pass
		// cannot see, so the m-indexed stores keep their checks.
		//hddlint:ignore bcecheck m < i ≤ len is a sweep invariant invisible to the prove pass
		scores[m] = s
		m++
		if s < threshold {
			votes++
			tryBulk = true // the blocking fail is behind us now
		}
		//hddlint:ignore bcecheck m-n-1 < m ≤ len is the same cursor invariant
		if m > n && scores[m-n-1] < threshold {
			votes--
		}
		if m >= n && 2*votes > n {
			return i - 1, i - m
		}
	}
	return -1, len(scores) - m
}

// VoteAlarm reads a score only through s < threshold, s >= threshold and
// s != s, so at a fixed threshold each score is fully described by one
// of three vote classes. EncodeVotes records them one byte per score;
// DecodeVotes expands them into proxy scores (+Inf for a pass, -Inf for a
// fail, NaN for an invalid prediction) that answer all three comparisons
// as the original scores did at any threshold in [-1, 1], so VoteAlarm
// over the proxies returns the original (idx, excluded) exactly, for
// every voters. The fleet sweep (internal/sweep) keeps the classes to
// replay a scored fleet at other window sizes without scoring it again.
// The mean rule reads score values, so it has no such encoding.
const (
	voteNaN  = 0 // invalid prediction: s != s
	votePass = 1 // valid, s >= threshold
	voteFail = 2 // valid, s < threshold
)

// voteProxy maps a vote class to its proxy score; the fourth entry lets
// DecodeVotes index by class&3 without a bounds check.
var voteProxy = [4]float64{voteNaN: math.NaN(), votePass: math.Inf(1), voteFail: math.Inf(-1), 3: math.NaN()}

// EncodeVotes writes the vote class of each score at threshold into
// dst[:len(scores)]. It must run before VoteAlarm compacts scores.
//
//hddlint:noalloc
func EncodeVotes(dst []uint8, scores []float64, threshold float64) {
	dst = dst[:len(scores)]
	for i, s := range scores {
		c := uint8(voteNaN)
		if s >= threshold {
			c = votePass
		} else if s < threshold {
			c = voteFail
		}
		dst[i] = c
	}
}

// DecodeVotes writes the proxy score of each vote class into
// dst[:len(votes)], ready for VoteAlarm at the encoding threshold.
//
//hddlint:noalloc
func DecodeVotes(dst []float64, votes []uint8) {
	dst = dst[:len(votes)]
	for i, c := range votes {
		dst[i] = voteProxy[c&3]
	}
}

// MeanAlarm is VoteAlarm for the health-degree rule (§V-C): alarm at the
// first index where the mean of the last voters valid scores drops below
// threshold. Each full window is summed fresh by windowSum, the sum
// Window.Mean reports: a rolling sum would carry the rounding of scores
// that have left the window, and the rule could then alarm at a sample
// where the window's own mean is not below threshold. scores is mutated
// as in VoteAlarm.
//
//hddlint:noalloc //hddlint:nobc
func MeanAlarm(scores []float64, voters int, threshold float64) (idx, excluded int) {
	n := max(voters, 1)
	cnt := 0
	for i, s := range scores {
		if s != s {
			continue // invalid prediction: excluded, not counted
		}
		// cnt trails i exactly as VoteAlarm's m does.
		//hddlint:ignore bcecheck cnt ≤ i < len is a sweep invariant invisible to the prove pass
		scores[cnt] = s
		cnt++
		if cnt < n {
			continue
		}
		//hddlint:ignore bcecheck 0 ≤ cnt-n < cnt ≤ len is the same cursor invariant
		if windowSum(scores[cnt-n:cnt])/float64(n) < threshold {
			return i, i + 1 - cnt
		}
	}
	return -1, len(scores) - cnt
}

// windowSum adds a window's scores oldest first. It is the one sum both
// the mean rule and Window.Mean use, so the alarm decision and the
// health a warning reports come from the same rounding.
//
//hddlint:noalloc //hddlint:nobc
func windowSum(window []float64) float64 {
	sum := 0.0
	for _, v := range window {
		sum += v
	}
	return sum
}
