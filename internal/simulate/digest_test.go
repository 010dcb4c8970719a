package simulate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestTraceDigest pins every trace of a small two-family fleet at two
// seeds to a sha256 over its hours and value bits, so a speed-up of the
// generator is checked to leave its output bit for bit unchanged.
func TestTraceDigest(t *testing.T) {
	want := map[int64]string{
		1: "32493 5c3ff25717fcfbdb6de9074c19499dca1ee1a2bd942bc0cab41a2dc8acdd5af0",
		2: "32476 41295f4490c8957cdadfe2ec96a8c670f17a20aa08d4b4061a424da830c9ee31",
	}
	for _, seed := range []int64{1, 2} {
		w, q := FamilyW(), FamilyQ()
		w.GoodCount, w.FailedCount = 12, 10
		q.GoodCount, q.FailedCount = 6, 8
		f, err := New(Config{Seed: seed, Families: []FamilyParams{w, q}})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		records := 0
		for i := range f.Drives() {
			tr := f.Trace(i)
			put(uint64(len(tr)))
			for _, r := range tr {
				put(uint64(r.Hour))
				for a := range r.Normalized {
					put(math.Float64bits(r.Normalized[a]))
					put(math.Float64bits(r.Raw[a]))
				}
			}
			records += len(tr)
		}
		if got := fmt.Sprintf("%d %x", records, h.Sum(nil)); got != want[seed] {
			t.Errorf("seed %d: records and sha256 = %s, want %s", seed, got, want[seed])
		}
	}
}
