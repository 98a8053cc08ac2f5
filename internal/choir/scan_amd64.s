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
