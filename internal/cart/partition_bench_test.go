package cart

import (
	"math/rand"
	"testing"
	"unsafe"
)

// Microbenches for the partition-kernel tiers, recorded in
// BENCH_fleetsweep.json alongside the fleet-sweep numbers they feed.
// Each op partitions one full 256-row tile column — the exact shape
// the sweep engine's root partitions run — with a balanced cut, and
// reports elements per second. The impls are called directly (not
// through dispatch) so each sub-benchmark pins one tier regardless of
// cpu.Active.

const benchPartN = 256

type partBenchData struct {
	col  []uint8
	src  []int32
	out  []int32
	cut  uint8
	colp unsafe.Pointer
	srcp unsafe.Pointer
	outp unsafe.Pointer
}

func newPartBenchData() *partBenchData {
	rng := rand.New(rand.NewSource(7))
	d := &partBenchData{
		col: make([]uint8, benchPartN),
		src: make([]int32, benchPartN),
		out: make([]int32, benchPartN),
		cut: 128,
	}
	for i := range d.col {
		d.col[i] = uint8(rng.Intn(256))
	}
	for i, p := range rng.Perm(benchPartN) {
		d.src[i] = int32(p)
	}
	d.colp = unsafe.Pointer(&d.col[0])
	d.srcp = unsafe.Pointer(&d.src[0])
	d.outp = unsafe.Pointer(&d.out[0])
	return d
}

func reportElems(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melems/s")
}

func BenchmarkPartitionRootTiled(b *testing.B) {
	d := newPartBenchData()
	kernels := []struct {
		name string
		fn   func(colp unsafe.Pointer, n int, outp unsafe.Pointer, cut uint8) int
	}{
		{"scalar", partitionRootTiledScalar},
		{"avx2", partitionRootTiledAVX2},
	}
	for _, k := range kernels {
		b.Run("kernel="+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn(d.colp, benchPartN, d.outp, d.cut)
			}
			reportElems(b, benchPartN)
		})
	}
}

func BenchmarkPartitionSegTiled(b *testing.B) {
	d := newPartBenchData()
	kernels := []struct {
		name string
		fn   func(srcp, outp unsafe.Pointer, n int, colp unsafe.Pointer, cut uint8) int
	}{
		{"scalar", partitionSegTiledScalar},
		{"avx2", partitionSegTiledAVX2},
	}
	for _, k := range kernels {
		b.Run("kernel="+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn(d.srcp, d.outp, benchPartN, d.colp, d.cut)
			}
			reportElems(b, benchPartN)
		})
	}
}

func BenchmarkPartitionLeafPairTiled(b *testing.B) {
	d := newPartBenchData()
	dst := make([]float64, benchPartN)
	pay := [2]float64{0.25, 0.75}
	dstp, payp := unsafe.Pointer(&dst[0]), unsafe.Pointer(&pay[0])
	// The leaf-pair kernel has one tier; the kernel=scalar name keeps
	// its BENCH_fleetsweep.json baseline row.
	b.Run("kernel=scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			leafPairSegTiledScalar(d.srcp, benchPartN, d.colp, d.cut, dstp, payp, true)
		}
		reportElems(b, benchPartN)
	})
}
