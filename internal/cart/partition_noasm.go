//go:build !amd64 || noasm

package cart

import "unsafe"

// Without the assembly the AVX2 tier cannot be selected — internal/cpu
// reports it unsupported and refuses SetActive — but the dispatch
// switches still link the symbols, so route them to the scalar tier.

func partitionRootTiledAVX2(colp unsafe.Pointer, n int, outp unsafe.Pointer, cut uint8) int {
	return partitionRootTiledScalar(colp, n, outp, cut)
}

func partitionSegTiledAVX2(srcp, outp unsafe.Pointer, n int, colp unsafe.Pointer, cut uint8) int {
	return partitionSegTiledScalar(srcp, outp, n, colp, cut)
}

var asmKernelRegistry []asmKernel
