package detect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hddcart/internal/smart"
)

// bruteVoting is a reference implementation of the voting rule.
func bruteVoting(scores []float64, n int, threshold float64) int {
	if n < 1 {
		n = 1
	}
	for i := n - 1; i < len(scores); i++ {
		votes := 0
		for j := i - n + 1; j <= i; j++ {
			if scores[j] < threshold {
				votes++
			}
		}
		if 2*votes > n {
			return i
		}
	}
	return -1
}

// bruteMean is a reference implementation of the mean-threshold rule.
func bruteMean(scores []float64, n int, threshold float64) int {
	if n < 1 {
		n = 1
	}
	for i := n - 1; i < len(scores); i++ {
		sum := 0.0
		for j := i - n + 1; j <= i; j++ {
			sum += scores[j]
		}
		if sum/float64(n) < threshold {
			return i
		}
	}
	return -1
}

func TestVotingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(15)
		length := rng.Intn(60)
		scores := make([]float64, length)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		th := rng.NormFloat64() * 0.5
		det := &Voting{Model: scoreModel{}, Voters: n, Threshold: th}
		got := det.Detect(series(scores...))
		want := bruteVoting(scores, n, th)
		if got != want {
			t.Fatalf("trial %d (n=%d): Detect=%d, brute=%d, scores=%v", trial, n, got, want, scores)
		}
	}
}

func TestMeanThresholdMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(15)
		length := rng.Intn(60)
		scores := make([]float64, length)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		th := rng.NormFloat64() * 0.5
		det := &MeanThreshold{Model: scoreModel{}, Voters: n, Threshold: th}
		got := det.Detect(series(scores...))
		want := bruteMean(scores, n, th)
		// Floating-point summation order can differ at exact
		// boundaries; tolerate only exact agreement of indices, which
		// random continuous scores make safe.
		if got != want {
			t.Fatalf("trial %d (n=%d): Detect=%d, brute=%d", trial, n, got, want)
		}
	}
}

// TestMeanThresholdMonotoneInThreshold: raising the threshold can only
// move the alarm earlier (or create one).
func TestMeanThresholdMonotoneInThreshold(t *testing.T) {
	err := quick.Check(func(raw []int8, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		for i, v := range raw {
			scores[i] = float64(v) / 32
		}
		lo := &MeanThreshold{Model: scoreModel{}, Voters: 5, Threshold: -0.5}
		hi := &MeanThreshold{Model: scoreModel{}, Voters: 5, Threshold: 0.5}
		li := lo.Detect(series(scores...))
		hiIdx := hi.Detect(series(scores...))
		if li == -1 {
			return true // nothing to compare
		}
		return hiIdx != -1 && hiIdx <= li
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestVotingMonotoneInVoters: with a persistently failed tail, larger N
// alarms later but still alarms.
func TestVotingMonotoneInVoters(t *testing.T) {
	scores := make([]float64, 60)
	for i := range scores {
		if i < 30 {
			scores[i] = 1
		} else {
			scores[i] = -1
		}
	}
	prev := -1
	for _, n := range []int{1, 3, 7, 11, 21} {
		det := &Voting{Model: scoreModel{}, Voters: n}
		idx := det.Detect(series(scores...))
		if idx == -1 {
			t.Fatalf("N=%d missed a persistent failure", n)
		}
		if idx < prev {
			t.Fatalf("N=%d alarmed earlier (%d) than a smaller window (%d)", n, idx, prev)
		}
		prev = idx
	}
}

func TestMultiVotingMatchesSingleDetectors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	voters := []int{1, 3, 5, 7, 11, 0}
	for trial := 0; trial < 200; trial++ {
		length := rng.Intn(80)
		scores := make([]float64, length)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		th := rng.NormFloat64() * 0.3
		multi := &MultiVoting{Model: scoreModel{}, Voters: voters, Threshold: th}
		got := multi.DetectAll(series(scores...))
		for vi, n := range voters {
			single := &Voting{Model: scoreModel{}, Voters: n, Threshold: th}
			want := single.Detect(series(scores...))
			if got[vi] != want {
				t.Fatalf("trial %d N=%d: multi=%d single=%d", trial, n, got[vi], want)
			}
		}
	}
}

func TestMultiVotingScanAll(t *testing.T) {
	s := Series{X: series(1, -1, -1, -1), Hours: []int{10, 11, 12, 13}}
	m := &MultiVoting{Model: scoreModel{}, Voters: []int{1, 3}}
	outs := m.ScanAll(s, 100)
	if !outs[0].Alarmed || outs[0].AlarmHour != 11 || outs[0].LeadHours != 89 {
		t.Errorf("N=1 outcome = %+v", outs[0])
	}
	if !outs[1].Alarmed || outs[1].AlarmHour != 12 {
		t.Errorf("N=3 outcome = %+v", outs[1])
	}
	outs = m.ScanAll(Series{X: series(1, 1), Hours: []int{1, 2}}, -1)
	if outs[0].Alarmed || outs[1].Alarmed {
		t.Error("clean drive alarmed")
	}
	if outs[0].LeadHours != -1 {
		t.Error("good drive lead hours should be -1")
	}
}

func TestMultiVotingEmpty(t *testing.T) {
	m := &MultiVoting{Model: scoreModel{}}
	if got := m.DetectAll(series(1, -1)); len(got) != 0 {
		t.Errorf("no voters should give empty result, got %v", got)
	}
}

// compactNaN removes NaN scores, returning the survivors and their
// original indexes — the reference semantics of NaN exclusion.
func compactNaN(scores []float64) (valid []float64, orig []int) {
	for i, s := range scores {
		if math.IsNaN(s) {
			continue
		}
		valid = append(valid, s)
		orig = append(orig, i)
	}
	return valid, orig
}

// saltNaN deterministically replaces ~frac of scores with NaN.
func saltNaN(rng *rand.Rand, scores []float64, frac float64) []float64 {
	out := append([]float64(nil), scores...)
	for i := range out {
		if rng.Float64() < frac {
			out[i] = math.NaN()
		}
	}
	return out
}

// TestVotingExcludesNaN: a series with NaN scores must alarm exactly where
// the same series with those samples deleted alarms (mapped back to series
// coordinates) — invalid predictions are excluded, never counted as
// healthy votes. The detector, the pre-scored sweep and the multi path
// must all agree.
func TestVotingExcludesNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		scores := make([]float64, rng.Intn(80))
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		th := rng.NormFloat64() * 0.4
		salted := saltNaN(rng, scores, 0.3)
		valid, orig := compactNaN(salted)
		want := bruteVoting(valid, n, th)
		if want >= 0 {
			want = orig[want]
		}
		stream := (&Voting{Model: scoreModel{}, Voters: n, Threshold: th}).Detect(series(salted...))
		batch, _ := VoteAlarm(append([]float64(nil), salted...), n, th)
		multi := (&MultiVoting{Model: scoreModel{}, Voters: []int{n}, Threshold: th}).DetectAll(series(salted...))
		if stream != want || batch != want || multi[0] != want {
			t.Fatalf("trial %d (n=%d): stream=%d batch=%d multi=%d, want %d",
				trial, n, stream, batch, multi[0], want)
		}
	}
}

// TestMeanThresholdExcludesNaN: same exclusion contract for the
// health-degree detector.
func TestMeanThresholdExcludesNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		scores := make([]float64, rng.Intn(80))
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		th := rng.NormFloat64() * 0.4
		salted := saltNaN(rng, scores, 0.3)
		valid, orig := compactNaN(salted)
		want := bruteMean(valid, n, th)
		if want >= 0 {
			want = orig[want]
		}
		stream := (&MeanThreshold{Model: scoreModel{}, Voters: n, Threshold: th}).Detect(series(salted...))
		batch, _ := MeanAlarm(append([]float64(nil), salted...), n, th)
		if stream != want || batch != want {
			t.Fatalf("trial %d (n=%d): stream=%d batch=%d, want %d", trial, n, stream, batch, want)
		}
	}
}

// TestVotingAllNaNNeverAlarms: a fully corrupt series has no valid window
// and must pass clean.
func TestVotingAllNaNNeverAlarms(t *testing.T) {
	nan := math.NaN()
	s := series(nan, nan, nan, nan)
	if got := (&Voting{Model: scoreModel{}, Voters: 1}).Detect(s); got != -1 {
		t.Errorf("Voting on all-NaN series alarmed at %d", got)
	}
	if got := (&MeanThreshold{Model: scoreModel{}, Voters: 1}).Detect(s); got != -1 {
		t.Errorf("MeanThreshold on all-NaN series alarmed at %d", got)
	}
}

// TestVotingVerdictMonotoneInFailedVotes: over a full window of exactly N
// samples, the verdict depends monotonically on the number of failed
// votes — turning any healthy vote failed can never clear an alarm.
func TestVotingVerdictMonotoneInFailedVotes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(15)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		det := &Voting{Model: scoreModel{}, Voters: n}
		before := det.Detect(series(scores...)) >= 0
		// Flip one healthy sample to failed.
		flipped := append([]float64(nil), scores...)
		idx := rng.Intn(n)
		flipped[idx] = -math.Abs(flipped[idx]) - 1
		after := det.Detect(series(flipped...)) >= 0
		if before && !after {
			t.Fatalf("trial %d: adding a failed vote cleared the alarm (n=%d, scores=%v)", trial, n, scores)
		}
	}
}

// TestVotingVerdictPermutationInvariant: the verdict over a full window of
// exactly N samples depends only on the multiset of scores, not their
// order (equal-health histories are interchangeable).
func TestVotingVerdictPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		det := &Voting{Model: scoreModel{}, Voters: n}
		want := det.Detect(series(scores...)) >= 0
		perm := append([]float64(nil), scores...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := det.Detect(series(perm...)) >= 0; got != want {
			t.Fatalf("trial %d: verdict changed under permutation (n=%d, %v vs %v)", trial, n, scores, perm)
		}
	}
}

// TestMeanThresholdMonotoneInThresholdPairs: for any thresholds t1 ≤ t2,
// the t2 detector alarms no later than the t1 detector (the existing
// fixed-pair test, generalized to random pairs).
func TestMeanThresholdMonotoneInThresholdPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		scores := make([]float64, 5+rng.Intn(60))
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		t1 := rng.NormFloat64() * 0.5
		t2 := rng.NormFloat64() * 0.5
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		lo := (&MeanThreshold{Model: scoreModel{}, Voters: n, Threshold: t1}).Detect(series(scores...))
		hi := (&MeanThreshold{Model: scoreModel{}, Voters: n, Threshold: t2}).Detect(series(scores...))
		if lo >= 0 && (hi < 0 || hi > lo) {
			t.Fatalf("trial %d: threshold %v alarmed at %d but %v at %d", trial, t1, lo, t2, hi)
		}
	}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := NewVoting(scoreModel{}, 7, 0); err != nil {
		t.Errorf("valid voting config rejected: %v", err)
	}
	if _, err := NewMeanThreshold(scoreModel{}, 3, -0.3); err != nil {
		t.Errorf("valid mean-threshold config rejected: %v", err)
	}
	if _, err := NewMultiVoting(scoreModel{}, []int{1, 3}, 0); err != nil {
		t.Errorf("valid multi-voting config rejected: %v", err)
	}
	bad := []struct {
		name string
		err  error
	}{
		{"voting nil model", func() error { _, err := NewVoting(nil, 1, 0); return err }()},
		{"voting N=0", func() error { _, err := NewVoting(scoreModel{}, 0, 0); return err }()},
		{"voting N<0", func() error { _, err := NewVoting(scoreModel{}, -3, 0); return err }()},
		{"voting threshold 1.5", func() error { _, err := NewVoting(scoreModel{}, 1, 1.5); return err }()},
		{"voting threshold NaN", func() error { _, err := NewVoting(scoreModel{}, 1, math.NaN()); return err }()},
		{"mean N=0", func() error { _, err := NewMeanThreshold(scoreModel{}, 0, 0); return err }()},
		{"mean threshold -2", func() error { _, err := NewMeanThreshold(scoreModel{}, 1, -2); return err }()},
		{"multi N=0 entry", func() error { _, err := NewMultiVoting(scoreModel{}, []int{3, 0}, 0); return err }()},
	}
	for _, c := range bad {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestExtractSeriesDropsNonFiniteVectors(t *testing.T) {
	fs := smart.FeatureSet{{Attr: smart.Catalogue[0].ID, Kind: smart.Normalized}}
	trace := make([]smart.Record, 4)
	for i := range trace {
		trace[i].Hour = i
		trace[i].Normalized[0] = 100
	}
	trace[2].Normalized[0] = math.NaN()
	s := ExtractSeries(fs, trace, 0, len(trace))
	if len(s.X) != 3 || s.Dropped != 1 {
		t.Fatalf("len=%d dropped=%d, want 3/1", len(s.X), s.Dropped)
	}
	if s.Hours[2] != 3 {
		t.Errorf("surviving hours = %v", s.Hours)
	}
}

// TestVoteReplayMatchesScores: VoteAlarm over the proxies DecodeVotes
// expands from EncodeVotes' classes must return the (idx, excluded) it
// returns over the raw scores, for every N in 1..17 and thresholds across
// [-1, 1]. Scores mix NaN, ±Inf, ±0, values exactly at and one ulp either
// side of the threshold, and long healthy runs that take the bulk skip.
func TestVoteReplayMatchesScores(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	negZero := math.Copysign(0, -1)
	thresholds := []float64{-1, -0.5, -0.1, negZero, 0, 0.1, 0.5, 1}
	for len(thresholds) < 40 {
		thresholds = append(thresholds, 2*rng.Float64()-1)
	}
	for _, th := range thresholds {
		pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, -1, 1, th,
			math.Nextafter(th, math.Inf(1)), math.Nextafter(th, math.Inf(-1))}
		for trial := 0; trial < 60; trial++ {
			scores := make([]float64, rng.Intn(90))
			for i := range scores {
				switch {
				case rng.Intn(3) == 0:
					scores[i] = pool[rng.Intn(len(pool))]
				case rng.Intn(4) == 0:
					scores[i] = 2*rng.Float64() - 1
				default:
					scores[i] = 1 // healthy stretches, as fleets are
				}
			}
			votes := make([]uint8, len(scores))
			EncodeVotes(votes, scores, th)
			proxies := make([]float64, len(votes))
			for n := 1; n <= 17; n++ {
				DecodeVotes(proxies, votes)
				gotIdx, gotExcl := VoteAlarm(proxies, n, th)
				wantIdx, wantExcl := VoteAlarm(append([]float64(nil), scores...), n, th)
				if gotIdx != wantIdx || gotExcl != wantExcl {
					t.Fatalf("threshold %v trial %d N=%d: replay (%d, %d), scores (%d, %d); scores=%v",
						th, trial, n, gotIdx, gotExcl, wantIdx, wantExcl, scores)
				}
			}
		}
	}
}
