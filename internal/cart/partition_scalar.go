package cart

import "unsafe"

// Scalar reference tier for the partition kernels, and the only tier
// on builds without the assembly. The AVX2 tier is pinned bit-identical
// to these loops — same left count, same output index order — by the
// internal/equiv dispatch matrix and the kernel table tests.
//
// The loops are branch-free: both cursors live in one uint64 (left
// cursor in the low half counting up, right cursor in the high half
// counting down) so each iteration is one predicate, one shift-select
// of the store position, and one fused add that advances exactly one
// of the two cursors. The old form kept `m--` and an off/w pair whose
// recompute was data-dependent per iteration; folding both cursors
// into a single register update removes that dependency chain and
// benchmarks fairly against the vector tier.

// curStep advances the packed (left | right<<32) cursor pair: adding
// curStep-2^32 bumps left; adding -2^32 drops right.
const curStep = 1<<32 + 1

// ltBit is 1 when cv < cut (unsigned): the uint32 subtraction borrows
// into the sign bit exactly on that predicate.
func ltBit(cv, cut uint8) uint64 {
	return uint64((uint32(cv) - uint32(cut)) >> 31)
}

// partitionRootTiledScalar splits the implicit chunk order 0..n-1 on
// colp[k] < cut; the tiled feature column is one contiguous byte run.
//
//go:noinline
//hddlint:noalloc //hddlint:nobc
//hddlint:binned
func partitionRootTiledScalar(colp unsafe.Pointer, n int, outp unsafe.Pointer, cut uint8) int {
	cur := uint64(uint32(n-1)) << 32
	for k := 0; k < n; k++ {
		cv := *(*uint8)(unsafe.Add(colp, uintptr(k)))
		w := ltBit(cv, cut)
		pos := uint32(cur >> ((w ^ 1) << 5))
		*(*int32)(unsafe.Add(outp, uintptr(pos)*4)) = int32(k)
		cur += w*curStep - 1<<32
	}
	return int(uint32(cur))
}

// partitionSegTiledScalar partitions an interior node's segment:
// sample indices come from srcp and index the node's contiguous
// feature column.
//
//go:noinline
//hddlint:noalloc //hddlint:nobc
//hddlint:binned
func partitionSegTiledScalar(srcp, outp unsafe.Pointer, n int, colp unsafe.Pointer, cut uint8) int {
	cur := uint64(uint32(n-1)) << 32
	for k := 0; k < n; k++ {
		idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
		cv := *(*uint8)(unsafe.Add(colp, uintptr(uint32(idx))))
		w := ltBit(cv, cut)
		pos := uint32(cur >> ((w ^ 1) << 5))
		*(*int32)(unsafe.Add(outp, uintptr(pos)*4)) = idx
		cur += w*curStep - 1<<32
	}
	return int(uint32(cur))
}

// leafPairSegTiledScalar finishes a segment whose node has two leaf
// children in one compare-and-deliver pass over the feature column.
//
//go:noinline
//hddlint:noalloc //hddlint:nobc
//hddlint:binned
func leafPairSegTiledScalar(srcp unsafe.Pointer, n int, colp unsafe.Pointer, cut uint8,
	dstp, payp unsafe.Pointer, add bool) {
	if add {
		for k := 0; k < n; k++ {
			idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
			cv := *(*uint8)(unsafe.Add(colp, uintptr(uint32(idx))))
			off := uintptr(8)
			if cv < cut {
				off = 0
			}
			*(*float64)(unsafe.Add(dstp, uintptr(uint32(idx))*8)) += *(*float64)(unsafe.Add(payp, off))
		}
		return
	}
	for k := 0; k < n; k++ {
		idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
		cv := *(*uint8)(unsafe.Add(colp, uintptr(uint32(idx))))
		off := uintptr(8)
		if cv < cut {
			off = 0
		}
		*(*float64)(unsafe.Add(dstp, uintptr(uint32(idx))*8)) = *(*float64)(unsafe.Add(payp, off))
	}
}
