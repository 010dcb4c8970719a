package hddcart

import (
	"bytes"
	"math/rand"
	"testing"
)

// oracleDrive is the oracle's whole view of one drive: the newest
// accepted hour, whether the drive has warned since its last Resolve,
// and its warning while unpopped.
type oracleDrive struct {
	lastHour int
	warned   bool
	queued   bool
	warning  MonitorWarning
}

// oraclePool is the serial pool FuzzMonitorOracle draws from. Its first
// two serials collided under the 31-bit serial hash that once keyed the
// monitor's warning queue.
var oraclePool = []string{"B0081191", "B0655080", "a", "b", "c"}

// FuzzMonitorOracle runs random Observe / Resolve / NextWarning /
// snapshot-then-restore sequences on a one-voter monitor and checks each
// step against a plain oracle: a map from serial to the drive's warned
// flag and queued warning, with a linear scan for the most urgent one.
// With one voter and threshold 0 a drive trips exactly when its score is
// negative, and the warning's health is that score.
//
// Each operation takes three bytes: the operation (low two bits) and
// whether the clock advances first (bit 2), the serial, and the score.
// Scores are multiples of 1/128, exact through recAt's offset, so the
// oracle compares healths bit for bit. Two drives can warn with the same
// (health, hour); the monitor may pop either, so a pop only has to be
// as urgent as the oracle's most urgent warning.
func FuzzMonitorOracle(f *testing.F) {
	// Both colliding serials warn, one is re-scored, then both pop.
	f.Add([]byte{0, 0, 64, 4, 1, 96, 4, 1, 32, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	// Both warn, then Resolve of either must leave the other queued.
	f.Add([]byte{0, 0, 64, 0, 1, 96, 1, 0, 0, 2, 0, 0, 4, 0, 10, 1, 1, 0, 2, 0, 0})
	// Warn, snapshot, re-score and pop on the restored monitor.
	f.Add([]byte{0, 0, 64, 0, 2, 64, 3, 0, 0, 4, 2, 16, 3, 0, 0, 2, 0, 0, 2, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newTestMonitor(t, 1, false)
		oracle := map[string]*oracleDrive{}
		queued := func() int {
			n := 0
			for _, d := range oracle {
				if d.queued {
					n++
				}
			}
			return n
		}
		// pop checks one NextWarning against the oracle and reports
		// whether the queue was non-empty.
		pop := func(step int) bool {
			got, ok := m.NextWarning()
			var best *MonitorWarning
			for _, d := range oracle {
				if d.queued && (best == nil || d.warning.Health < best.Health ||
					d.warning.Health == best.Health && d.warning.Hour < best.Hour) {
					best = &d.warning
				}
			}
			if ok != (best != nil) {
				t.Fatalf("step %d: NextWarning ok=%v, oracle has %d queued", step, ok, queued())
			}
			if !ok {
				return false
			}
			d := oracle[got.Serial]
			if d == nil || !d.queued || got != d.warning {
				t.Fatalf("step %d: NextWarning = %+v, oracle holds %+v", step, got, d)
			}
			if got.Health != best.Health || got.Hour != best.Hour {
				t.Fatalf("step %d: NextWarning = %+v, more urgent %+v queued", step, got, *best)
			}
			d.queued = false
			return true
		}
		hour := 0
		for step := 0; len(ops) >= 3; step++ {
			op, serial, v := ops[0], oraclePool[int(ops[1])%len(oraclePool)], float64(int(ops[2])-128)/128
			ops = ops[3:]
			if op&4 != 0 {
				hour++
			}
			switch op & 3 {
			case 0:
				got, ok := m.Observe(serial, recAt(hour, v))
				d := oracle[serial]
				if d == nil {
					d = &oracleDrive{lastHour: -1}
					oracle[serial] = d
				}
				var want MonitorWarning
				wantOK := false
				if hour > d.lastHour {
					d.lastHour = hour
					switch {
					case v >= 0:
					case !d.warned:
						d.warned, d.queued = true, true
						d.warning = MonitorWarning{Serial: serial, Health: v, Hour: hour}
						want, wantOK = d.warning, true
					case d.queued:
						d.warning.Health = v
					}
				}
				if ok != wantOK || got != want {
					t.Fatalf("step %d: Observe(%s, %d, %v) = %+v, %v; want %+v, %v",
						step, serial, hour, v, got, ok, want, wantOK)
				}
			case 1:
				m.Resolve(serial)
				delete(oracle, serial)
			case 2:
				pop(step)
			case 3:
				var buf bytes.Buffer
				if err := m.EncodeSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				m = newTestMonitor(t, 1, false)
				if err := m.RestoreSnapshot(&buf); err != nil {
					t.Fatalf("step %d: restore: %v", step, err)
				}
			}
			if got, want := m.Outstanding(), queued(); got != want {
				t.Fatalf("step %d: Outstanding = %d, oracle has %d queued", step, got, want)
			}
		}
		for pop(-1) {
		}
	})
}
