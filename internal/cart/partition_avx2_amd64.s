//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 compare-and-compress partition kernels. Shared scheme per
// 8-code word (see partition_avx2_amd64.go for the order/window contract):
//
//	mask  = VPMOVMSKB(VPCMPGTB(cut^80, x^80))      x[j] < cut, bit j
//	left  = VPERMD(src, permTabL[mask])            lefts ascending
//	right = VPERMD(src, permTabR[mask])            rights, lane-reversed
//
// Both sides are stored blind (full 8-lane VMOVDQU); garbage lanes land
// inside the unwritten cursor window. The vector loop runs while
// n-k >= 16 so both blind stores fit the window; the scalar tail
// continues on the same cursors with a CMOV select.
//
// Register plan (both kernels):
//	SI src/col base   DI out base   CX n   R10 k
//	R8 left cursor    R9 right cursor
//	X8 0x80 broadcast X9 (cut^0x80) broadcast

// func partitionRootTiledAVX2(colp unsafe.Pointer, n int, outp unsafe.Pointer, cut uint8) int
TEXT ·partitionRootTiledAVX2(SB), NOSPLIT, $0-40
	MOVQ    colp+0(FP), SI
	MOVQ    n+8(FP), CX
	MOVQ    outp+16(FP), DI
	MOVBLZX cut+24(FP), R14
	MOVL    R14, AX
	XORL    $0x80, AX
	VMOVD   AX, X9
	VPBROADCASTB X9, X9
	MOVL    $0x80, DX
	VMOVD   DX, X8
	VPBROADCASTB X8, X8
	VPXOR   Y10, Y10, Y10       // Y10 = dword broadcast of k (starts 0)
	MOVL    $8, DX
	VMOVD   DX, X11
	VPBROADCASTD X11, Y11       // Y11 = dword broadcast of 8
	XORQ    R8, R8              // l = 0
	LEAQ    -1(CX), R9          // r = n-1
	XORQ    R10, R10            // k = 0
	LEAQ    ·permTabL(SB), R12
	LEAQ    ·permTabR(SB), R13

rootvec:
	MOVQ    CX, DX
	SUBQ    R10, DX
	CMPQ    DX, $16
	JLT     roottail
	VMOVQ   (SI)(R10*1), X0     // 8 codes
	VPXOR   X8, X0, X0          // x ^ 0x80
	VPCMPGTB X0, X9, X1         // lane j = (cut^80 >s x^80) = x < cut
	VPMOVMSKB X1, AX
	ANDL    $0xff, AX
	POPCNTL AX, DX              // pc = left count
	SHLL    $5, AX              // table row offset (32 bytes per mask)
	VMOVDQU (R12)(AX*1), Y2     // left positions as dwords
	VPADDD  Y10, Y2, Y3         // + word base k
	VMOVDQU Y3, (DI)(R8*4)      // blind 8-lane left store
	ADDQ    DX, R8              // l += pc
	VMOVDQU (R13)(AX*1), Y4     // right positions, lane-reversed
	VPADDD  Y10, Y4, Y5
	LEAQ    -7(R9), BX
	VMOVDQU Y5, (DI)(BX*4)      // blind 8-lane right store at r-7..r
	MOVL    $8, BX
	SUBQ    DX, BX
	SUBQ    BX, R9              // r -= 8-pc
	ADDQ    $8, R10
	VPADDD  Y11, Y10, Y10       // advance the broadcast base
	JMP     rootvec

roottail:
	CMPQ    R10, CX
	JGE     rootdone
	MOVBLZX (SI)(R10*1), AX
	SUBL    R14, AX
	SHRL    $31, AX             // w = code < cut
	MOVQ    R9, DX
	TESTL   AX, AX
	CMOVQNE R8, DX              // pos = w ? l : r
	MOVL    R10, (DI)(DX*4)
	ADDQ    AX, R8              // l += w
	SUBQ    $1, R9
	ADDQ    AX, R9              // r -= 1-w
	INCQ    R10
	JMP     roottail

rootdone:
	MOVQ    R8, ret+32(FP)
	VZEROUPPER
	RET

// func partitionSegTiledAVX2(srcp, outp unsafe.Pointer, n int, colp unsafe.Pointer, cut uint8) int
TEXT ·partitionSegTiledAVX2(SB), NOSPLIT, $0-48
	MOVQ    srcp+0(FP), SI
	MOVQ    outp+8(FP), DI
	MOVQ    n+16(FP), CX
	MOVQ    colp+24(FP), R11
	MOVBLZX cut+32(FP), R14
	MOVL    R14, AX
	XORL    $0x80, AX
	VMOVD   AX, X9
	VPBROADCASTB X9, X9
	MOVL    $0x80, DX
	VMOVD   DX, X8
	VPBROADCASTB X8, X8
	XORQ    R8, R8              // l = 0
	LEAQ    -1(CX), R9          // r = n-1
	XORQ    R10, R10            // k = 0
	LEAQ    ·permTabL(SB), R12
	LEAQ    ·permTabR(SB), R13

segvec:
	MOVQ    CX, DX
	SUBQ    R10, DX
	CMPQ    DX, $16
	JLT     segtail
	VMOVDQU (SI)(R10*4), Y0     // 8 segment indices as dwords
	// Gather the 8 code bytes by index. Scalar VPINSRB loads, not
	// VPGATHERDD: a dword gather reads 4 bytes per lane and would run
	// past the matrix end on the last column bytes.
	MOVL    (SI)(R10*4), BX
	VPINSRB $0, (R11)(BX*1), X1, X1
	MOVL    4(SI)(R10*4), BX
	VPINSRB $1, (R11)(BX*1), X1, X1
	MOVL    8(SI)(R10*4), BX
	VPINSRB $2, (R11)(BX*1), X1, X1
	MOVL    12(SI)(R10*4), BX
	VPINSRB $3, (R11)(BX*1), X1, X1
	MOVL    16(SI)(R10*4), BX
	VPINSRB $4, (R11)(BX*1), X1, X1
	MOVL    20(SI)(R10*4), BX
	VPINSRB $5, (R11)(BX*1), X1, X1
	MOVL    24(SI)(R10*4), BX
	VPINSRB $6, (R11)(BX*1), X1, X1
	MOVL    28(SI)(R10*4), BX
	VPINSRB $7, (R11)(BX*1), X1, X1
	VPXOR   X8, X1, X1
	VPCMPGTB X1, X9, X2
	VPMOVMSKB X2, AX
	ANDL    $0xff, AX
	POPCNTL AX, DX              // pc
	SHLL    $5, AX
	VMOVDQU (R12)(AX*1), Y2
	VPERMD  Y0, Y2, Y3          // compact lefts in encounter order
	VMOVDQU Y3, (DI)(R8*4)
	ADDQ    DX, R8
	VMOVDQU (R13)(AX*1), Y4
	VPERMD  Y0, Y4, Y5          // rights, reversed into descending order
	LEAQ    -7(R9), BX
	VMOVDQU Y5, (DI)(BX*4)
	MOVL    $8, BX
	SUBQ    DX, BX
	SUBQ    BX, R9
	ADDQ    $8, R10
	JMP     segvec

segtail:
	CMPQ    R10, CX
	JGE     segdone
	MOVL    (SI)(R10*4), BX     // idx
	MOVBLZX (R11)(BX*1), AX
	SUBL    R14, AX
	SHRL    $31, AX             // w = code < cut
	MOVQ    R9, DX
	TESTL   AX, AX
	CMOVQNE R8, DX
	MOVL    BX, (DI)(DX*4)
	ADDQ    AX, R8
	SUBQ    $1, R9
	ADDQ    AX, R9
	INCQ    R10
	JMP     segtail

segdone:
	MOVQ    R8, ret+40(FP)
	VZEROUPPER
	RET
