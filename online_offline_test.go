package hddcart

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hddcart/internal/smart"
)

// onlineOfflineModels are the ct and rt trees FuzzOnlineOffline scores
// with, trained once per process on a small simulated fleet.
var onlineOfflineModels struct {
	once   sync.Once
	ct, rt *Tree
	err    error
}

// trainOnlineOfflineModels trains (once) and returns the ct and rt trees.
func trainOnlineOfflineModels(tb testing.TB) (ct, rt *Tree) {
	tb.Helper()
	mo := &onlineOfflineModels
	mo.once.Do(func() {
		fleet, err := GenerateFleet(FleetConfig{Seed: 5, GoodScale: 0.004, FailedScale: 0.1})
		if err != nil {
			mo.err = err
			return
		}
		b, err := NewDatasetBuilder(DatasetConfig{
			Features: CriticalFeatures(), PeriodEnd: 168, FailedWindowHours: 168, FailedShare: 0.2, Seed: 5,
		})
		if err != nil {
			mo.err = err
			return
		}
		for _, d := range fleet.Drives() {
			if d.Failed {
				b.AddFailedDrive(d.Index, d.FailHour, fleet.Trace(d.Index))
			} else {
				b.AddGoodDrive(d.Index, fleet.Trace(d.Index))
			}
		}
		ds, err := b.Finalize()
		if err != nil {
			mo.err = err
			return
		}
		if mo.ct, err = TrainClassificationTree(ds, TreeParams{LossFA: 10}); err != nil {
			mo.err = err
			return
		}
		if err := ds.SetHealthTargets(nil, 72); err != nil {
			mo.err = err
			return
		}
		mo.rt, mo.err = TrainRegressionTree(ds, TreeParams{})
	})
	if mo.err != nil {
		tb.Fatal(mo.err)
	}
	return mo.ct, mo.rt
}

// onlineOfflineCase is one FuzzOnlineOffline input: a simulated drive,
// the edits applied to its trace, and the detection rule.
type onlineOfflineCase struct {
	seed   int64  // fleet seed
	drive  uint8  // drive of the 4-drive fleet (mod 4)
	rt     bool   // rt tree with the mean rule, else ct with voting
	voters uint8  // N = 1 + voters mod 17
	thr    int8   // rt threshold thr/128
	start  uint16 // first trace record used (mod trace length)
	edits  []byte // (op, arg) pairs, see editTrace
}

// editTrace builds the observed trace from full[start:] by (op, arg)
// byte pairs: op%4 == 0 keeps the next arg+1 records, 1 drops them (an
// hour gap), 2 keeps the next record with attribute arg corrupted (NaN
// normalized value when op&4, negative raw value otherwise), 3 keeps the
// rest. Records past the last edit are dropped.
func editTrace(full []Record, start int, edits []byte) []Record {
	var out []Record
	i := start
	for k := 0; k+1 < len(edits) && i < len(full); k += 2 {
		op, arg := edits[k], int(edits[k+1])
		switch op % 4 {
		case 0:
			end := min(i+arg+1, len(full))
			out = append(out, full[i:end]...)
			i = end
		case 1:
			i += arg + 1
		case 2:
			r := full[i]
			i++
			a := arg % smart.NumAttrs
			if op&4 != 0 {
				r.Normalized[a] = math.NaN()
			} else {
				r.Raw[a] = -1
			}
			out = append(out, r)
		case 3:
			out = append(out, full[i:]...)
			i = len(full)
		}
	}
	return out
}

// onlineOfflineMismatch runs one case through both paths: a Monitor fed
// the trace record by record, and detect.Scan over ExtractSeries of the
// whole trace. It returns a description of the disagreement, or "" when
// the first warning hour equals the alarm hour or the drive is outside
// the contract (its monitor counted a drop, repair, reset or
// quarantine).
func onlineOfflineMismatch(tb testing.TB, c onlineOfflineCase) string {
	ct, rt := trainOnlineOfflineModels(tb)
	fleet, err := GenerateFleet(FleetConfig{Seed: c.seed, GoodScale: 1e-9, FailedScale: 1e-9})
	if err != nil {
		tb.Fatal(err)
	}
	d := fleet.Drives()[int(c.drive)%len(fleet.Drives())]
	full := fleet.Trace(d.Index)
	trace := editTrace(full, int(c.start)%len(full), c.edits)

	n := 1 + int(c.voters)%17
	cfg := MonitorConfig{Features: CriticalFeatures(), Model: ct, Voters: n}
	var det Detector = &VotingDetector{Model: ct, Voters: n}
	if c.rt {
		cfg.Model, cfg.UseMean, cfg.Threshold = rt, true, float64(c.thr)/128
		det = &MeanThresholdDetector{Model: rt, Voters: n, Threshold: cfg.Threshold}
	}
	m, err := NewMonitor(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	online := -1
	for _, rec := range trace {
		if w, ok := m.Observe(d.Serial, rec); ok && online < 0 {
			online = w.Hour
		}
	}
	s := m.Stats()
	if s.DroppedOutOfOrder+s.DroppedDuplicate+s.DroppedInvalid+s.DroppedQuarantined+
		s.Repaired+s.StaleResets+s.QuarantineEvents > 0 {
		return ""
	}
	offline := -1
	if o := Scan(det, ExtractSeries(CriticalFeatures(), trace, 0, len(trace)), -1); o.Alarmed {
		offline = o.AlarmHour
	}
	if online == offline {
		return ""
	}
	return fmt.Sprintf("drive %s (%d records, N=%d, rt=%v): Monitor first warned at hour %d, Scan alarmed at %d (-1 = never)",
		d.Serial, len(trace), n, c.rt, online, offline)
}

// FuzzOnlineOffline pins the online ≡ offline contract: for a drive
// whose monitor drops, repairs and resets nothing, the Monitor's first
// warning comes at the hour where detect.Scan over the same trace
// alarms, for ct voting and rt mean rules and every N in [1, 17].
// Drives are simulated at fuzz-chosen fleet seeds, then cut, gapped and
// corrupted by fuzz-chosen edits (corrupted drives fall outside the
// contract but still run through both paths).
func FuzzOnlineOffline(f *testing.F) {
	// The gap trace: 11 records, a 9-record gap, 11 more, at N = 1. The
	// first samples after the gap look back across it to the last record
	// before it; a history trimmed to the retention horizon alone lost
	// that record, so the Monitor skipped them and warned later (ct: hour
	// 1021 against Scan's 1019; rt: 942 against 940).
	gap := []byte{0, 10, 1, 8, 0, 10}
	f.Add(int64(1), uint8(1), false, uint8(0), int8(0), uint16(154), gap)
	f.Add(int64(1), uint8(3), true, uint8(0), int8(0), uint16(343), gap)
	// Every drive of a fleet under both rules, over the whole trace with
	// two gaps (4 and 10 records) near its start.
	for drive := uint8(0); drive < 4; drive++ {
		for _, rt := range []bool{false, true} {
			f.Add(int64(2), drive, rt, 5*drive, int8(-38), uint16(0), []byte{0, 40, 1, 3, 0, 60, 1, 9, 3, 0})
		}
	}
	// Random edits, corruption included.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 4; i++ {
		edits := make([]byte, 2*(1+rng.Intn(12)))
		rng.Read(edits)
		if i%2 == 0 {
			edits = append(edits, 3, 0) // then the whole rest of the trace
		}
		f.Add(rng.Int63n(64), uint8(rng.Intn(4)), i%3 == 0, uint8(rng.Intn(17)), int8(-rng.Intn(64)),
			uint16(rng.Intn(1400)), edits)
	}
	f.Fuzz(func(t *testing.T, seed int64, drive uint8, rt bool, voters uint8, thr int8, start uint16, edits []byte) {
		c := onlineOfflineCase{seed: seed, drive: drive, rt: rt, voters: voters, thr: thr, start: start, edits: edits}
		if msg := onlineOfflineMismatch(t, c); msg != "" {
			t.Fatal(msg)
		}
	})
}
