package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hddcart/internal/detect"
	"hddcart/internal/simulate"
)

// seriesDigest hashes every sample hour and feature bit of a test set's
// series, so two sets compare equal only if they hold the same samples.
func seriesDigest(ts *testSet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range ts.series {
		put(uint64(len(s.X)))
		for i, x := range s.X {
			put(uint64(s.Hours[i]))
			for _, v := range x {
				put(math.Float64bits(v))
			}
		}
	}
	return h.Sum64()
}

// TestScanResultsWorkerIndependent proves the test-set paths — the set
// build, scan, the multi-window votingCurve, the failed-only filter of the
// updating FDR pass and Table V's subset filter — produce identical
// results (including the order of time-in-advance samples) for every
// worker count. Training is already provably worker-independent; this
// pins the evaluation side down too.
func TestScanResultsWorkerIndependent(t *testing.T) {
	var base string
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := smallConfig()
		cfg.Workers = workers
		cfg.ANNEpochs = 10
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tree, net, err := env.standardModels("W")
		if err != nil {
			t.Fatal(err)
		}
		compiled := tree.Compile()
		ts := env.criticalSet("W")

		ctCurve := env.votingCurve(ts, compiled, []int{1, 5, 11})
		annCurve := env.votingCurve(ts, net, []int{5})
		res := env.scan(ts, &detect.Voting{Model: compiled, Voters: 11})

		failed := ts.filter(func(d simulate.Drive) bool { return d.Failed })
		failedRes := env.scan(failed, &detect.Voting{Model: compiled, Voters: 11})

		in := make(map[int]bool)
		for _, d := range env.subsetDrives("W", 0.5, 7919) {
			in[d.Index] = true
		}
		subset := ts.filter(func(d simulate.Drive) bool { return in[d.Index] })
		subsetRes := env.scan(subset, &detect.Voting{Model: net, Voters: 11})

		if got, want := fmt.Sprintf("%+v", res), fmt.Sprintf("%+v", ctCurve[2].Result); got != want {
			t.Fatalf("workers=%d: scan with Voting N=11 = %s, votingCurve N=11 = %s", workers, got, want)
		}
		if n := len(failed.series); n == 0 || n == len(ts.series) {
			t.Fatalf("workers=%d: failed-only filter kept %d of %d drives", workers, n, len(ts.series))
		}
		for _, d := range failed.drives {
			if !d.Failed {
				t.Fatalf("workers=%d: failed-only filter kept a good drive", workers)
			}
		}
		if n := len(subset.series); n == 0 || n == len(ts.series) {
			t.Fatalf("workers=%d: subset filter kept %d of %d drives", workers, n, len(ts.series))
		}

		repr := fmt.Sprintf("%+v %v %x || %+v || %+v || %+v || %+v || %d %+v",
			ts.drives, ts.failHours, seriesDigest(ts),
			ctCurve, annCurve, res, failedRes, len(subset.drives), subsetRes)
		if base == "" {
			base = repr
		} else if repr != base {
			t.Fatalf("workers=%d diverged:\n%s\nwant:\n%s", workers, repr, base)
		}
	}
}
