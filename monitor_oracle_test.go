package hddcart

import (
	"bytes"
	"math/rand"
	"testing"
)

// oracleDrive is the oracle's whole view of one drive: the newest
// accepted hour and whether the drive has warned since its last Resolve.
type oracleDrive struct {
	lastHour int
	warned   bool
}

// oraclePool is the serial pool FuzzMonitorOracle draws from. Its first
// two serials collided under the 31-bit serial hash that once keyed the
// monitor's warning queue.
var oraclePool = []string{"B0081191", "B0655080", "a", "b", "c"}

// FuzzMonitorOracle runs random Observe / Resolve / snapshot-then-restore
// sequences on a one-voter monitor and checks each Observe against a
// plain oracle: a map from serial to the drive's newest hour and warned
// flag. With one voter and threshold 0 a drive trips exactly when its
// score is negative, and the warning's health is that score.
//
// Each operation takes three bytes: the operation (low two bits: 0 and
// 2 observe, 1 resolves, 3 snapshots and restores) and whether the clock
// advances first (bit 2), the serial, and the score. Scores are
// multiples of 1/128, exact through recAt's offset, so the oracle
// compares healths bit for bit.
func FuzzMonitorOracle(f *testing.F) {
	// Both colliding serials warn, then stay quiet while failing.
	f.Add([]byte{0, 0, 64, 4, 1, 96, 4, 1, 32, 2, 0, 0, 6, 0, 0, 2, 1, 0})
	// Both warn, then Resolve of either lets only it warn again.
	f.Add([]byte{0, 0, 64, 0, 1, 96, 1, 0, 0, 4, 0, 10, 4, 1, 10, 1, 1, 0, 4, 1, 10})
	// Warn, snapshot, then the restored monitor keeps the warned flag.
	f.Add([]byte{0, 0, 64, 0, 2, 64, 3, 0, 0, 4, 2, 16, 3, 0, 0, 4, 0, 0, 1, 0, 0, 4, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newTestMonitor(t, 1, false)
		oracle := map[string]*oracleDrive{}
		hour := 0
		for step := 0; len(ops) >= 3; step++ {
			op, serial, v := ops[0], oraclePool[int(ops[1])%len(oraclePool)], float64(int(ops[2])-128)/128
			ops = ops[3:]
			if op&4 != 0 {
				hour++
			}
			switch op & 3 {
			case 0, 2:
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
					if v < 0 && !d.warned {
						d.warned = true
						want, wantOK = MonitorWarning{Serial: serial, Health: v, Hour: hour}, true
					}
				}
				if ok != wantOK || got != want {
					t.Fatalf("step %d: Observe(%s, %d, %v) = %+v, %v; want %+v, %v",
						step, serial, hour, v, got, ok, want, wantOK)
				}
			case 1:
				m.Resolve(serial)
				delete(oracle, serial)
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
		}
	})
}
