//go:build amd64 && !noasm

package cart

import "unsafe"

// AVX2 tier: hand-written kernels in partition_avx2_amd64.s. Both use
// the unsigned-compare trick (XOR 0x80 on both sides, then a signed
// VPCMPGTB) and VPMOVMSKB to turn eight codes into a compare mask, then
// compact order-preservingly through the permTabL/permTabR VPERMD
// tables below.
//
// Order preservation is the load-bearing property. The scalar loops
// write lefts ascending from index 0 and rights DESCENDING from n-1,
// both in encounter order, and downstream segments inherit that order.
// The two cursors are independent (left advances only on lefts, right
// only on rights), so storing a word's lefts as a group and then its
// rights as a group lands every element where the interleaved scalar
// loop would have. Each 8-lane store is blind: lanes past the side's
// population count write into slots still inside the unwritten window
// between the cursors, overwritten by later words or the tail. The
// window is wide enough while 16 or more elements remain, which is the
// vector loop's bound; the branch-free scalar tail finishes the rest on
// the same cursors.
//
// The segment kernel gathers its eight code bytes with scalar VPINSRB
// loads rather than VPGATHERDD: a dword gather on the last byte of the
// matrix would read up to three bytes past the allocation.

// permTabL[m] lists, lane by lane, the positions of the set bits of
// mask m ascending (unused lanes hold 0); permTabR[m] does the same for
// the clear bits but lane-reversed (lane i holds the (7-i)-th clear
// bit), so one 8-lane store lands the rights descending.
var (
	permTabL [256][8]uint32
	permTabR [256][8]uint32
)

func init() {
	for m := 0; m < 256; m++ {
		li, ri := 0, 0
		for b := 0; b < 8; b++ {
			if m&(1<<b) != 0 {
				permTabL[m][li] = uint32(b)
				li++
			} else {
				permTabR[m][7-ri] = uint32(b)
				ri++
			}
		}
	}
}

// partitionRootTiledAVX2 is the AVX2 tier of partitionRootBinnedTiled.
//
//go:noescape
func partitionRootTiledAVX2(colp unsafe.Pointer, n int, outp unsafe.Pointer, cut uint8) int

// partitionSegTiledAVX2 is the AVX2 tier of partitionSegBinnedTiled.
//
//go:noescape
func partitionSegTiledAVX2(srcp, outp unsafe.Pointer, n int, colp unsafe.Pointer, cut uint8) int

// asmKernelRegistry pairs every assembly-backed kernel in this package
// with its pure-Go fallback and the internal/equiv path family that
// pins both bit-identical. The hddlint asmfallback analyzer fails the
// build if a body-less kernel declaration is missing from this table,
// and the equiv dispatch-matrix test fails if a named path family does
// not exist in the harness.
var asmKernelRegistry = []asmKernel{
	{asm: partitionRootTiledAVX2, fallback: partitionRootTiledScalar, equivPath: "tiled-range"},
	{asm: partitionSegTiledAVX2, fallback: partitionSegTiledScalar, equivPath: "tiled-range"},
}
