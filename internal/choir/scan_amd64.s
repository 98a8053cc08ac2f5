#include "textflag.h"

// scanLanesAVX2, the exact-order AVX2 form of scanRange's boundary loop
// (DESIGN.md §12): four boundaries a step, each gain computed with the
// generic kernel's operations in its order and no FMA instruction.

// The boundaries of a step, in the lane order VUNPCKLPD/VUNPCKHPD leave.
DATA scanOrder<>+0(SB)/8, $0
DATA scanOrder<>+8(SB)/8, $2
DATA scanOrder<>+16(SB)/8, $1
DATA scanOrder<>+24(SB)/8, $3
GLOBL scanOrder<>(SB), RODATA|NOPTR, $32

DATA scanStep<>+0(SB)/8, $4
GLOBL scanStep<>(SB), RODATA|NOPTR, $8

// func scanLanesAVX2(prefix []complex128, cusum [][2]float64, tr, ti float64, base, best int, bestGain float64, lanes *scanLanes)
TEXT ·scanLanesAVX2(SB), NOSPLIT, $0-96
	MOVQ         prefix_base+0(FP), SI
	MOVQ         prefix_len+8(FP), R8
	MOVQ         cusum_base+24(FP), DI
	MOVQ         lanes+88(FP), DX
	VBROADCASTSD tr+48(FP), Y14
	VBROADCASTSD ti+56(FP), Y15
	VPBROADCASTQ base+64(FP), Y11
	VPADDQ       scanOrder<>(SB), Y11, Y11 // the boundary in each lane
	VPBROADCASTQ best+72(FP), Y12          // each lane's first maximum
	VBROADCASTSD bestGain+80(FP), Y13      // each lane's maximum
	VPBROADCASTQ scanStep<>(SB), Y10
	ANDQ         $-4, R8
	SHLQ         $4, R8
	XORQ         AX, AX
	CMPQ         AX, R8
	JAE          done

loop:
	VMOVUPD   (SI)(AX*1), Y0   // P_i, P_i+1
	VMOVUPD   32(SI)(AX*1), Y1 // P_i+2, P_i+3
	VMOVUPD   (DI)(AX*1), Y2   // the table rows of i, i+1
	VMOVUPD   32(DI)(AX*1), Y3
	VUNPCKLPD Y1, Y0, Y4       // re P
	VUNPCKHPD Y1, Y0, Y5       // im P
	VUNPCKLPD Y3, Y2, Y6       // w[0]
	VUNPCKHPD Y3, Y2, Y7       // w[1]
	VMULPD    Y14, Y6, Y8
	VSUBPD    Y8, Y4, Y4       // dr = re P − w[0]·tr
	VMULPD    Y15, Y6, Y8
	VSUBPD    Y8, Y5, Y5       // di = im P − w[0]·ti
	VMULPD    Y4, Y4, Y4
	VMULPD    Y5, Y5, Y5
	VADDPD    Y5, Y4, Y4
	VMULPD    Y7, Y4, Y4       // gain = (dr·dr + di·di)·w[1]
	VCMPPD    $0x1e, Y13, Y4, Y8 // gain > maximum, ordered: false for NaN
	VBLENDVPD Y8, Y4, Y13, Y13
	VBLENDVPD Y8, Y11, Y12, Y12
	VPADDQ    Y10, Y11, Y11
	ADDQ      $64, AX
	CMPQ      AX, R8
	JB        loop

done:
	VMOVUPD Y13, 0(DX)
	VMOVDQU Y12, 32(DX)
	VZEROUPPER
	RET

// The constants of segmentScan's block bound: one half, scanMargin and the
// mask that clears a float64's sign bit.
DATA boundHalf<>+0(SB)/8, $0x3fe0000000000000
GLOBL boundHalf<>(SB), RODATA|NOPTR, $8

DATA boundMargin<>+0(SB)/8, $0x3ff0000100000000
GLOBL boundMargin<>(SB), RODATA|NOPTR, $8

DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

// func blockBoundsAVX2(mask []uint64, prefix []complex128, cusum [][2]float64, wmax, blk []float64, tr, ti, tail, lower, dev0 float64)
//
// blockBoundsGeneric over blocks 0 … len(wmax)−1, four a step, one a lane:
// lane l computes |D|₁ at the boundary that ends block b+l, takes the one
// that starts it from lane l−1 (lane 0 from the last step's lane 3, dev0 at
// the first step), and sets bit b+l of mask when the block's bound is below
// lower (LT_OQ: false for NaN, as Go's <). len(wmax) must be a multiple of
// four, and mask must start zeroed.
TEXT ·blockBoundsAVX2(SB), NOSPLIT, $0-160
	MOVQ         mask_base+0(FP), DX
	MOVQ         prefix_base+24(FP), SI
	MOVQ         cusum_base+48(FP), DI
	MOVQ         wmax_base+72(FP), R8
	MOVQ         wmax_len+80(FP), R9
	MOVQ         blk_base+96(FP), R10
	VBROADCASTSD tr+120(FP), Y14
	VBROADCASTSD ti+128(FP), Y15
	VBROADCASTSD tail+136(FP), Y13
	VBROADCASTSD lower+144(FP), Y12
	VBROADCASTSD dev0+152(FP), Y8 // lane 0: |D|₁ where the step's first block starts
	VBROADCASTSD boundHalf<>(SB), Y11
	VBROADCASTSD boundMargin<>(SB), Y10
	VBROADCASTSD absMask<>(SB), Y9
	SHLQ         $3, R9           // R9: the end of wmax in bytes
	XORQ         AX, AX           // the step's first boundary a, in prefix bytes (a·16)
	XORQ         BX, BX           // the step's first block b, in wmax bytes (b·8)
	XORQ         CX, CX           // b mod 64: the step's first bit in the word
	XORQ         R11, R11         // the word of skip bits being built
	CMPQ         BX, R9
	JAE          boundsDone

boundsLoop:
	// The boundaries a+8, a+16, a+24 and a+32 end the step's four blocks:
	// each 128-bit half holds one row, ordered so that the unpacks leave
	// them in lane order.
	VMOVUPD      128(SI)(AX*1), X0
	VINSERTF128  $1, 384(SI)(AX*1), Y0, Y0
	VMOVUPD      256(SI)(AX*1), X1
	VINSERTF128  $1, 512(SI)(AX*1), Y1, Y1
	VMOVUPD      128(DI)(AX*1), X4
	VINSERTF128  $1, 384(DI)(AX*1), Y4, Y4
	VMOVUPD      256(DI)(AX*1), X5
	VINSERTF128  $1, 512(DI)(AX*1), Y5, Y5
	VUNPCKLPD    Y1, Y0, Y2 // re P
	VUNPCKHPD    Y1, Y0, Y3 // im P
	VUNPCKLPD    Y5, Y4, Y4 // w[0]
	VMULPD       Y14, Y4, Y5
	VSUBPD       Y5, Y2, Y2 // re P − w[0]·tr
	VMULPD       Y15, Y4, Y5
	VSUBPD       Y5, Y3, Y3 // im P − w[0]·ti
	VANDPD       Y9, Y2, Y2
	VANDPD       Y9, Y3, Y3
	VADDPD       Y3, Y2, Y2 // devB = |re D| + |im D|
	VPERMPD      $0x93, Y2, Y6 // devB of lanes 3, 0, 1, 2
	VBLENDPD     $1, Y8, Y6, Y7 // devA: lane 0 from the last step
	VMOVAPD      Y6, Y8
	VADDPD       Y2, Y7, Y7 // devA + devB
	VADDPD       (R10)(BX*1), Y7, Y7 // + blk[b]
	VADDPD       Y13, Y7, Y7 // + tail
	VMULPD       Y11, Y7, Y7 // r = 0.5·(…)
	VMULPD       Y7, Y7, Y7 // r·r
	VMULPD       (R8)(BX*1), Y7, Y7 // wmax·(r·r)
	VMULPD       Y10, Y7, Y7 // ·scanMargin
	VCMPPD       $0x11, Y12, Y7, Y7 // < lower, ordered
	VMOVMSKPD    Y7, R12
	SHLQ         CX, R12
	ORQ          R12, R11
	ADDQ         $4, CX
	ADDQ         $512, AX
	ADDQ         $32, BX
	CMPQ         CX, $64
	JB           boundsNext
	MOVQ         R11, (DX)
	ADDQ         $8, DX
	XORQ         R11, R11
	XORQ         CX, CX

boundsNext:
	CMPQ BX, R9
	JB   boundsLoop
	TESTQ CX, CX
	JZ   boundsDone
	MOVQ R11, (DX)

boundsDone:
	VZEROUPPER
	RET

// func blockSumsAVX2(dst []float64, x []complex128)
//
// blockSumsGeneric over len(dst) blocks, a multiple of four, four blocks a
// step, one a lane: VHADDPD forms |re x_k| + |im x_k| of two blocks' samples
// k and k+1, VINSERTF128 and VPERM2F128 put sample k of the four blocks in
// one register and sample k+1 in another, and each lane adds them to its
// sum in sample order, from +0.
TEXT ·blockSumsAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), R8
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD absMask<>(SB), Y9
	SHLQ         $3, R8
	XORQ         BX, BX
	CMPQ         BX, R8
	JAE          sumsDone

sumsLoop:
	VXORPD Y8, Y8, Y8

#define SUMPAIR(off) \
	VANDPD        off(SI), Y9, Y0; \
	VANDPD        128+off(SI), Y9, Y1; \
	VANDPD        256+off(SI), Y9, Y2; \
	VANDPD        384+off(SI), Y9, Y3; \
	VHADDPD       Y1, Y0, Y4; \
	VHADDPD       Y3, Y2, Y5; \
	VINSERTF128   $1, X5, Y4, Y6; \
	VPERM2F128    $0x31, Y5, Y4, Y7; \
	VADDPD        Y6, Y8, Y8; \
	VADDPD        Y7, Y8, Y8

	SUMPAIR(0)
	SUMPAIR(32)
	SUMPAIR(64)
	SUMPAIR(96)
	VMOVUPD Y8, (DI)(BX*1)
	ADDQ    $512, SI
	ADDQ    $32, BX
	CMPQ    BX, R8
	JB      sumsLoop

sumsDone:
	VZEROUPPER
	RET

DATA magLow<>+0(SB)/8, $0x0030000000000000 // 2⁻¹⁰²⁰
DATA magLow<>+8(SB)/8, $0x7fefffffffffffff // math.MaxFloat64
GLOBL magLow<>(SB), RODATA|NOPTR, $16

// func magnitudesAVX2(out []float64, spec []complex128) int
//
// Writes √(re² + im²) for each of the first len(out)&^3 values of spec,
// four a step, and returns nonzero when any of them has a sum outside
// [2⁻¹⁰²⁰, MaxFloat64] (ordered compares, so a NaN sum is outside): those
// must take math.Hypot instead.
TEXT ·magnitudesAVX2(SB), NOSPLIT, $0-56
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), R8
	MOVQ         spec_base+24(FP), SI
	VBROADCASTSD magLow<>+0(SB), Y14
	VBROADCASTSD magLow<>+8(SB), Y15
	ANDQ         $-4, R8
	SHLQ         $3, R8
	XORQ         BX, BX
	XORQ         AX, AX // the out-of-range lanes of every step, ORed
	CMPQ         BX, R8
	JAE          magDone

magLoop:
	VMOVUPD   (SI)(BX*2), Y0 // re0 im0 re1 im1
	VMOVUPD   32(SI)(BX*2), Y1 // re2 im2 re3 im3
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VHADDPD   Y1, Y0, Y2    // s0 s2 s1 s3
	VPERMPD   $0xd8, Y2, Y2 // s0 s1 s2 s3
	VCMPPD    $0x1d, Y14, Y2, Y3 // s ≥ 2⁻¹⁰²⁰, ordered
	VCMPPD    $0x12, Y15, Y2, Y4 // s ≤ MaxFloat64, ordered
	VANDPD    Y4, Y3, Y3
	VMOVMSKPD Y3, CX
	XORQ      $15, CX
	ORQ       CX, AX
	VSQRTPD   Y2, Y2
	VMOVUPD   Y2, (DI)(BX*1)
	ADDQ      $32, BX
	CMPQ      BX, R8
	JB        magLoop

magDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func subtractToneAVX2(x, tone []complex128, h complex128)
//
// x[k] −= h·tone[k] for every k of x, two a step: the product as CMUL2 in
// kernels_amd64.s forms v·w, [tr·hr − ti·hi, ti·hr + tr·hi], the products
// of Go's h·tone with the factors commuted, then one VSUBPD.
TEXT ·subtractToneAVX2(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	MOVQ         tone_base+24(FP), SI
	VBROADCASTSD h_real+48(FP), Y14
	VBROADCASTSD h_imag+56(FP), Y15
	SHLQ         $4, CX
	MOVQ         CX, R8
	ANDQ         $-32, R8
	XORQ         AX, AX

subLoop:
	CMPQ      AX, R8
	JAE       subTail
	VMOVUPD   (SI)(AX*1), Y1
	VPERMILPD $5, Y1, Y6
	VMULPD    Y15, Y6, Y6
	VMULPD    Y14, Y1, Y0
	VADDSUBPD Y6, Y0, Y0
	VMOVUPD   (DI)(AX*1), Y2
	VSUBPD    Y0, Y2, Y2
	VMOVUPD   Y2, (DI)(AX*1)
	ADDQ      $32, AX
	JMP       subLoop

subTail:
	CMPQ      AX, CX
	JAE       subDone
	VMOVUPD   (SI)(AX*1), X1
	VPERMILPD $1, X1, X6
	VMULPD    X15, X6, X6
	VMULPD    X14, X1, X0
	VADDSUBPD X6, X0, X0
	VMOVUPD   (DI)(AX*1), X2
	VSUBPD    X0, X2, X2
	VMOVUPD   X2, (DI)(AX*1)

subDone:
	VZEROUPPER
	RET
