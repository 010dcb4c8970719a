package cart

import (
	"math/rand"
	"testing"
	"unsafe"
)

// Kernel-tier contract tests: the AVX2 tier (where linked) must produce
// byte-identical output to the scalar reference — the same left
// count AND the same index order — because the kernels are
// order-defining: the segment order they emit becomes the next level's
// input order, so any divergence cascades into different (if equally
// valid) trees downstream. The cases pin the seams the vector tier
// introduces: word (8) and window (16) boundaries, the 256-row tile
// size, degenerate cuts, uniform columns, and the reserved missing
// code.

// kernelSizes crosses the compare word (8), the blind-store window (16),
// and the tile row count (256), each with its neighbors, plus the
// empty and single-row cases the vector loops must fall through.
var kernelSizes = []int{0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 257}

// kernelCuts: cut 0 sends everything right (code < 0 is impossible),
// cut 1 splits only code 0 left, cut 255 sends all but code 255 left.
var kernelCuts = []uint8{0, 1, 128, 255}

// kernelColumns generates the structured column fills for size n.
func kernelColumns(n int, rng *rand.Rand) map[string][]uint8 {
	missing := uint8(16) // a small-bin column's reserved NumBins code
	cols := map[string][]uint8{
		"all-left":    make([]uint8, n), // all zeros: every code < any cut ≥ 1
		"all-right":   make([]uint8, n), // all 255: every code ≥ any cut ≤ 255
		"alternating": make([]uint8, n), // 0,255,0,255… flips the mask every lane
		"missing":     make([]uint8, n), // valid codes with reserved-code rows mixed in
		"random":      make([]uint8, n),
	}
	for i := 0; i < n; i++ {
		cols["all-right"][i] = 255
		if i%2 == 1 {
			cols["alternating"][i] = 255
		}
		cols["missing"][i] = uint8(rng.Intn(int(missing)))
		if i%5 == 3 {
			cols["missing"][i] = missing
		}
		cols["random"][i] = uint8(rng.Intn(256))
	}
	return cols
}

func ptrOrNil(b []uint8) unsafe.Pointer {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Pointer(&b[0])
}

// rootKernels/segKernels list every linked vector tier for the tiled
// kernels. On noasm or non-amd64 builds the AVX2 symbols route to
// scalar, so the table degrades to re-checking scalar rather than
// skipping a tier.
func rootKernels() map[string]func(unsafe.Pointer, int, unsafe.Pointer, uint8) int {
	return map[string]func(unsafe.Pointer, int, unsafe.Pointer, uint8) int{
		"avx2": partitionRootTiledAVX2,
	}
}

func segKernels() map[string]func(unsafe.Pointer, unsafe.Pointer, int, unsafe.Pointer, uint8) int {
	return map[string]func(unsafe.Pointer, unsafe.Pointer, int, unsafe.Pointer, uint8) int{
		"avx2": partitionSegTiledAVX2,
	}
}

func TestPartitionKernelTiersEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range kernelSizes {
		for name, col := range kernelColumns(n, rng) {
			for _, cut := range kernelCuts {
				colp := ptrOrNil(col)
				// Root: implicit 0..n-1 order.
				ref := make([]int32, n+1)
				lref := partitionRootTiledScalar(colp, n, unsafe.Pointer(&ref[0]), cut)
				for kname, fn := range rootKernels() {
					got := make([]int32, n+1)
					lgot := fn(colp, n, unsafe.Pointer(&got[0]), cut)
					if lgot != lref {
						t.Fatalf("root %s n=%d col=%s cut=%d: left %d want %d",
							kname, n, name, cut, lgot, lref)
					}
					for i := 0; i < n; i++ {
						if got[i] != ref[i] {
							t.Fatalf("root %s n=%d col=%s cut=%d: out[%d]=%d want %d",
								kname, n, name, cut, i, got[i], ref[i])
						}
					}
				}
				// Seg: scattered indices into a 300-row column.
				wide := make([]uint8, 300)
				for i := range wide {
					wide[i] = uint8(rng.Intn(256))
				}
				copy(wide, col)
				src := make([]int32, n+1)
				for i, p := range rng.Perm(300)[:n] {
					src[i] = int32(p)
				}
				srcp, widep := unsafe.Pointer(&src[0]), unsafe.Pointer(&wide[0])
				lref = partitionSegTiledScalar(srcp, unsafe.Pointer(&ref[0]), n, widep, cut)
				for kname, fn := range segKernels() {
					got := make([]int32, n+1)
					lgot := fn(srcp, unsafe.Pointer(&got[0]), n, widep, cut)
					if lgot != lref {
						t.Fatalf("seg %s n=%d col=%s cut=%d: left %d want %d",
							kname, n, name, cut, lgot, lref)
					}
					for i := 0; i < n; i++ {
						if got[i] != ref[i] {
							t.Fatalf("seg %s n=%d col=%s cut=%d: out[%d]=%d want %d",
								kname, n, name, cut, i, got[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// TestPartitionKernelRandomized cross-checks the tiers on randomized
// segments, sizes, and cuts — the fuzz-shaped complement to the
// structured edge cases above.
func TestPartitionKernelRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		cut := uint8(rng.Intn(256))
		col := make([]uint8, 300)
		for i := range col {
			col[i] = uint8(rng.Intn(256))
		}
		colp := unsafe.Pointer(&col[0])
		ref := make([]int32, n+1)
		got := make([]int32, n+1)
		refp, gotp := unsafe.Pointer(&ref[0]), unsafe.Pointer(&got[0])
		lref := partitionRootTiledScalar(colp, n, refp, cut)
		for kname, fn := range rootKernels() {
			if lgot := fn(colp, n, gotp, cut); lgot != lref {
				t.Fatalf("root %s trial=%d: left %d want %d", kname, trial, lgot, lref)
			}
			for i := 0; i < n; i++ {
				if got[i] != ref[i] {
					t.Fatalf("root %s trial=%d: out[%d]=%d want %d", kname, trial, i, got[i], ref[i])
				}
			}
		}
		src := make([]int32, n+1)
		for i, p := range rng.Perm(300)[:n] {
			src[i] = int32(p)
		}
		srcp := unsafe.Pointer(&src[0])
		lref = partitionSegTiledScalar(srcp, refp, n, colp, cut)
		for kname, fn := range segKernels() {
			if lgot := fn(srcp, gotp, n, colp, cut); lgot != lref {
				t.Fatalf("seg %s trial=%d: left %d want %d", kname, trial, lgot, lref)
			}
			for i := 0; i < n; i++ {
				if got[i] != ref[i] {
					t.Fatalf("seg %s trial=%d: out[%d]=%d want %d", kname, trial, i, got[i], ref[i])
				}
			}
		}
	}
}
