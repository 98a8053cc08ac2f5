#include "textflag.h"

// The exact-order AVX2 kernels of package dsp (DESIGN.md §12). Each packs two
// complex128 values into a YMM register and runs the generic Go kernel's
// IEEE operations on the same operands in the same order: a complex product
// v·w is VADDSUBPD of [vr·wr, vi·wr] and [vi·wi, vr·wi], its imaginary part
// summed in the other order (addition commutes bit for bit), and no FMA
// instruction appears, so every result rounds as the Go loop's does.

DATA signbits<>+0(SB)/8, $0x8000000000000000
GLOBL signbits<>(SB), RODATA|NOPTR, $8

// CMUL2 sets dst to the two complex products v·w, with wr and wi holding w's
// real and imaginary parts broadcast to their lanes; tmp is clobbered.
#define CMUL2(v, wr, wi, tmp, dst) \
	VPERMILPD $5, v, tmp; \
	VMULPD    wi, tmp, tmp; \
	VMULPD    wr, v, dst; \
	VADDSUBPD tmp, dst, dst

// CORR1 folds the correlation x·conj(t), [xr·tr + xi·ti, xi·tr − xr·ti], of
// one element into the running sum S (X13) and stores it at sum: the
// products as in CMUL2, the imaginary part's subtraction as the negated
// VADDSUBPD. t is in X0, x at (xp); X2–X5 are clobbered, X12 holds the sign
// bits.
#define CORR1(xp, sum) \
	VMOVDDUP     X0, X2; \
	VPERMILPD    $3, X0, X3; \
	VMOVUPD      xp, X4; \
	VPERMILPD    $1, X4, X5; \
	VMULPD       X2, X4, X4; \
	VMULPD       X3, X5, X5; \
	VXORPD       X12, X5, X5; \
	VADDSUBPD    X5, X4, X4; \
	VADDPD       X4, X13, X13; \
	VMOVUPD      X13, sum

// CORR2 is CORR1 for the two elements of Y0 and (xp): the two sums are added
// into S one after the other, in index order.
#define CORR2(xp, sum0, sum1) \
	VMOVDDUP     Y0, Y2; \
	VPERMILPD    $15, Y0, Y3; \
	VMOVUPD      xp, Y4; \
	VPERMILPD    $5, Y4, Y5; \
	VMULPD       Y2, Y4, Y4; \
	VMULPD       Y3, Y5, Y5; \
	VXORPD       Y12, Y5, Y5; \
	VADDSUBPD    Y5, Y4, Y4; \
	VADDPD       X4, X13, X13; \
	VMOVUPD      X13, sum0; \
	VEXTRACTF128 $1, Y4, X4; \
	VADDPD       X4, X13, X13; \
	VMOVUPD      X13, sum1

// func toneLevelAVX2(out, src, x, sums []complex128, w complex128, sr, si float64) (float64, float64)
TEXT ·toneLevelAVX2(SB), NOSPLIT, $0-144
	MOVQ         out_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	MOVQ         x_base+48(FP), DX
	MOVQ         sums_base+72(FP), BX
	VBROADCASTSD w_real+96(FP), Y14
	VBROADCASTSD w_imag+104(FP), Y15
	VMOVSD       sr+112(FP), X13
	VMOVHPD      si+120(FP), X13, X13
	VBROADCASTSD signbits<>(SB), Y12
	SHLQ         $4, CX
	MOVQ         CX, R8
	ANDQ         $-32, R8
	XORQ         AX, AX

toneLoop:
	CMPQ    AX, R8
	JAE     toneTail
	VMOVUPD (SI)(AX*1), Y1
	CMUL2(Y1, Y14, Y15, Y6, Y0)
	VMOVUPD Y0, (DI)(AX*1)
	CORR2((DX)(AX*1), (BX)(AX*1), 16(BX)(AX*1))
	ADDQ    $32, AX
	JMP     toneLoop

toneTail:
	CMPQ    AX, CX
	JAE     toneDone
	VMOVUPD (SI)(AX*1), X1
	CMUL2(X1, X14, X15, X6, X0)
	VMOVUPD X0, (DI)(AX*1)
	CORR1((DX)(AX*1), (BX)(AX*1))

toneDone:
	VMOVSD  X13, ret+128(FP)
	VMOVHPD X13, ret1+136(FP)
	VZEROUPPER
	RET

// func scaleLevelAVX2(out, src []complex128, w complex128)
TEXT ·scaleLevelAVX2(SB), NOSPLIT, $0-64
	MOVQ         out_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSD w_real+48(FP), Y14
	VBROADCASTSD w_imag+56(FP), Y15
	SHLQ         $4, CX
	MOVQ         CX, R8
	ANDQ         $-32, R8
	XORQ         AX, AX

scaleLoop:
	CMPQ    AX, R8
	JAE     scaleTail
	VMOVUPD (SI)(AX*1), Y1
	CMUL2(Y1, Y14, Y15, Y6, Y0)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     scaleLoop

scaleTail:
	CMPQ    AX, CX
	JAE     scaleDone
	VMOVUPD (SI)(AX*1), X1
	CMUL2(X1, X14, X15, X6, X0)
	VMOVUPD X0, (DI)(AX*1)

scaleDone:
	VZEROUPPER
	RET

// func prefixLevelAVX2(src, x, sums []complex128, w complex128, sr, si float64)
TEXT ·prefixLevelAVX2(SB), NOSPLIT, $0-104
	MOVQ         src_base+0(FP), SI
	MOVQ         src_len+8(FP), CX
	MOVQ         x_base+24(FP), DX
	MOVQ         sums_base+48(FP), BX
	VBROADCASTSD w_real+72(FP), Y14
	VBROADCASTSD w_imag+80(FP), Y15
	VMOVSD       sr+88(FP), X13
	VMOVHPD      si+96(FP), X13, X13
	VBROADCASTSD signbits<>(SB), Y12
	SHLQ         $4, CX
	MOVQ         CX, R8
	ANDQ         $-32, R8
	XORQ         AX, AX

prefixLoop:
	CMPQ    AX, R8
	JAE     prefixTail
	VMOVUPD (SI)(AX*1), Y1
	CMUL2(Y1, Y14, Y15, Y6, Y0)
	CORR2((DX)(AX*1), (BX)(AX*1), 16(BX)(AX*1))
	ADDQ    $32, AX
	JMP     prefixLoop

prefixTail:
	CMPQ    AX, CX
	JAE     prefixDone
	VMOVUPD (SI)(AX*1), X1
	CMUL2(X1, X14, X15, X6, X0)
	CORR1((DX)(AX*1), (BX)(AX*1))

prefixDone:
	VZEROUPPER
	RET

// TWID2 loads the two twiddles at (base)(k0) and (base)(k1) and broadcasts
// their real parts to wr and their imaginary parts to wi; X0 is clobbered.
#define TWID2(k0, k1, wr, wi) \
	VMOVUPD     k0, X0; \
	VINSERTF128 $1, k1, Y0, Y0; \
	VMOVDDUP    Y0, wr; \
	VPERMILPD   $15, Y0, wi

// func radix22PassAVX2(dst, tw, twq []complex128, h, step int)
//
// radix22Pass with two butterflies, j and j+1, a step. h must be even.
TEXT ·radix22PassAVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ tw_base+24(FP), SI
	MOVQ twq_base+48(FP), DX
	MOVQ h+72(FP), R9
	MOVQ step+80(FP), R10
	SHLQ $4, R8
	ADDQ DI, R8           // R8: the end of dst
	SHLQ $4, R9           // R9: a quarter block in bytes
	SHLQ $4, R10          // R10: step twiddles in bytes

r22Block:
	CMPQ DI, R8
	JAE  r22Done
	LEAQ (DI)(R9*1), AX   // q1
	LEAQ (AX)(R9*1), BX   // q2
	LEAQ (BX)(R9*1), CX   // q3
	XORQ R11, R11         // j in bytes
	XORQ R12, R12         // k = j·step, in bytes

r22Loop:
	LEAQ      (R12)(R10*1), R13 // k of butterfly j+1
	TWID2((SI)(R12*2), (SI)(R13*2), Y1, Y2)
	VMOVUPD   (AX)(R11*1), Y3
	VMOVUPD   (CX)(R11*1), Y4
	CMUL2(Y3, Y1, Y2, Y5, Y3) // b1 = q1·tw[2k]
	CMUL2(Y4, Y1, Y2, Y6, Y4) // b3 = q3·tw[2k]
	VMOVUPD   (DI)(R11*1), Y5
	VMOVUPD   (BX)(R11*1), Y6
	VADDPD    Y3, Y5, Y7      // a0 = q0 + b1
	VSUBPD    Y3, Y5, Y8      // a1 = q0 − b1
	VADDPD    Y4, Y6, Y9      // a2 = q2 + b3
	VSUBPD    Y4, Y6, Y10     // a3 = q2 − b3
	TWID2((SI)(R12*1), (SI)(R13*1), Y1, Y2)
	CMUL2(Y9, Y1, Y2, Y3, Y9) // c2 = a2·tw[k]
	TWID2((DX)(R12*1), (DX)(R13*1), Y1, Y2)
	CMUL2(Y10, Y1, Y2, Y3, Y10) // c3 = a3·twq[k]
	VADDPD    Y9, Y7, Y0
	VMOVUPD   Y0, (DI)(R11*1)   // q0 = a0 + c2
	VSUBPD    Y9, Y7, Y0
	VMOVUPD   Y0, (BX)(R11*1)   // q2 = a0 − c2
	VADDPD    Y10, Y8, Y0
	VMOVUPD   Y0, (AX)(R11*1)   // q1 = a1 + c3
	VSUBPD    Y10, Y8, Y0
	VMOVUPD   Y0, (CX)(R11*1)   // q3 = a1 − c3
	LEAQ      (R13)(R10*1), R12
	ADDQ      $32, R11
	CMPQ      R11, R9
	JB        r22Loop
	LEAQ      (CX)(R9*1), DI
	JMP       r22Block

r22Done:
	VZEROUPPER
	RET

// func radix2PassAVX2(dst, tw []complex128, h, step int)
//
// radix2Pass with two butterflies, j and j+1, a step. h must be even.
TEXT ·radix2PassAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ tw_base+24(FP), SI
	MOVQ h+48(FP), R9
	MOVQ step+56(FP), R10
	SHLQ $4, R8
	ADDQ DI, R8
	SHLQ $4, R9
	SHLQ $4, R10

r2Block:
	CMPQ DI, R8
	JAE  r2Done
	LEAQ (DI)(R9*1), AX   // hi
	XORQ R11, R11         // j in bytes
	XORQ R12, R12         // j·step, in bytes

r2Loop:
	LEAQ    (R12)(R10*1), R13
	TWID2((SI)(R12*1), (SI)(R13*1), Y1, Y2)
	VMOVUPD (AX)(R11*1), Y3
	CMUL2(Y3, Y1, Y2, Y4, Y3) // b = hi·tw[j·step]
	VMOVUPD (DI)(R11*1), Y5
	VADDPD  Y3, Y5, Y0
	VMOVUPD Y0, (DI)(R11*1)   // lo = a + b
	VSUBPD  Y3, Y5, Y0
	VMOVUPD Y0, (AX)(R11*1)   // hi = a − b
	LEAQ    (R13)(R10*1), R12
	ADDQ    $32, R11
	CMPQ    R11, R9
	JB      r2Loop
	LEAQ    (AX)(R9*1), DI
	JMP     r2Block

r2Done:
	VZEROUPPER
	RET

// The bracket pass's tables, indexed by a VMOVMSKPD mask m of four lanes:
// bracketCompress's row m is the VPERMD index vector that moves the set
// lanes of m, in order, to the front, and bracketCount[m] counts them.
DATA bracketCompress<>+0(SB)/4, $0
DATA bracketCompress<>+4(SB)/4, $0
DATA bracketCompress<>+8(SB)/4, $0
DATA bracketCompress<>+12(SB)/4, $0
DATA bracketCompress<>+16(SB)/4, $0
DATA bracketCompress<>+20(SB)/4, $0
DATA bracketCompress<>+24(SB)/4, $0
DATA bracketCompress<>+28(SB)/4, $0
DATA bracketCompress<>+32(SB)/4, $0
DATA bracketCompress<>+36(SB)/4, $1
DATA bracketCompress<>+40(SB)/4, $0
DATA bracketCompress<>+44(SB)/4, $0
DATA bracketCompress<>+48(SB)/4, $0
DATA bracketCompress<>+52(SB)/4, $0
DATA bracketCompress<>+56(SB)/4, $0
DATA bracketCompress<>+60(SB)/4, $0
DATA bracketCompress<>+64(SB)/4, $2
DATA bracketCompress<>+68(SB)/4, $3
DATA bracketCompress<>+72(SB)/4, $0
DATA bracketCompress<>+76(SB)/4, $0
DATA bracketCompress<>+80(SB)/4, $0
DATA bracketCompress<>+84(SB)/4, $0
DATA bracketCompress<>+88(SB)/4, $0
DATA bracketCompress<>+92(SB)/4, $0
DATA bracketCompress<>+96(SB)/4, $0
DATA bracketCompress<>+100(SB)/4, $1
DATA bracketCompress<>+104(SB)/4, $2
DATA bracketCompress<>+108(SB)/4, $3
DATA bracketCompress<>+112(SB)/4, $0
DATA bracketCompress<>+116(SB)/4, $0
DATA bracketCompress<>+120(SB)/4, $0
DATA bracketCompress<>+124(SB)/4, $0
DATA bracketCompress<>+128(SB)/4, $4
DATA bracketCompress<>+132(SB)/4, $5
DATA bracketCompress<>+136(SB)/4, $0
DATA bracketCompress<>+140(SB)/4, $0
DATA bracketCompress<>+144(SB)/4, $0
DATA bracketCompress<>+148(SB)/4, $0
DATA bracketCompress<>+152(SB)/4, $0
DATA bracketCompress<>+156(SB)/4, $0
DATA bracketCompress<>+160(SB)/4, $0
DATA bracketCompress<>+164(SB)/4, $1
DATA bracketCompress<>+168(SB)/4, $4
DATA bracketCompress<>+172(SB)/4, $5
DATA bracketCompress<>+176(SB)/4, $0
DATA bracketCompress<>+180(SB)/4, $0
DATA bracketCompress<>+184(SB)/4, $0
DATA bracketCompress<>+188(SB)/4, $0
DATA bracketCompress<>+192(SB)/4, $2
DATA bracketCompress<>+196(SB)/4, $3
DATA bracketCompress<>+200(SB)/4, $4
DATA bracketCompress<>+204(SB)/4, $5
DATA bracketCompress<>+208(SB)/4, $0
DATA bracketCompress<>+212(SB)/4, $0
DATA bracketCompress<>+216(SB)/4, $0
DATA bracketCompress<>+220(SB)/4, $0
DATA bracketCompress<>+224(SB)/4, $0
DATA bracketCompress<>+228(SB)/4, $1
DATA bracketCompress<>+232(SB)/4, $2
DATA bracketCompress<>+236(SB)/4, $3
DATA bracketCompress<>+240(SB)/4, $4
DATA bracketCompress<>+244(SB)/4, $5
DATA bracketCompress<>+248(SB)/4, $0
DATA bracketCompress<>+252(SB)/4, $0
DATA bracketCompress<>+256(SB)/4, $6
DATA bracketCompress<>+260(SB)/4, $7
DATA bracketCompress<>+264(SB)/4, $0
DATA bracketCompress<>+268(SB)/4, $0
DATA bracketCompress<>+272(SB)/4, $0
DATA bracketCompress<>+276(SB)/4, $0
DATA bracketCompress<>+280(SB)/4, $0
DATA bracketCompress<>+284(SB)/4, $0
DATA bracketCompress<>+288(SB)/4, $0
DATA bracketCompress<>+292(SB)/4, $1
DATA bracketCompress<>+296(SB)/4, $6
DATA bracketCompress<>+300(SB)/4, $7
DATA bracketCompress<>+304(SB)/4, $0
DATA bracketCompress<>+308(SB)/4, $0
DATA bracketCompress<>+312(SB)/4, $0
DATA bracketCompress<>+316(SB)/4, $0
DATA bracketCompress<>+320(SB)/4, $2
DATA bracketCompress<>+324(SB)/4, $3
DATA bracketCompress<>+328(SB)/4, $6
DATA bracketCompress<>+332(SB)/4, $7
DATA bracketCompress<>+336(SB)/4, $0
DATA bracketCompress<>+340(SB)/4, $0
DATA bracketCompress<>+344(SB)/4, $0
DATA bracketCompress<>+348(SB)/4, $0
DATA bracketCompress<>+352(SB)/4, $0
DATA bracketCompress<>+356(SB)/4, $1
DATA bracketCompress<>+360(SB)/4, $2
DATA bracketCompress<>+364(SB)/4, $3
DATA bracketCompress<>+368(SB)/4, $6
DATA bracketCompress<>+372(SB)/4, $7
DATA bracketCompress<>+376(SB)/4, $0
DATA bracketCompress<>+380(SB)/4, $0
DATA bracketCompress<>+384(SB)/4, $4
DATA bracketCompress<>+388(SB)/4, $5
DATA bracketCompress<>+392(SB)/4, $6
DATA bracketCompress<>+396(SB)/4, $7
DATA bracketCompress<>+400(SB)/4, $0
DATA bracketCompress<>+404(SB)/4, $0
DATA bracketCompress<>+408(SB)/4, $0
DATA bracketCompress<>+412(SB)/4, $0
DATA bracketCompress<>+416(SB)/4, $0
DATA bracketCompress<>+420(SB)/4, $1
DATA bracketCompress<>+424(SB)/4, $4
DATA bracketCompress<>+428(SB)/4, $5
DATA bracketCompress<>+432(SB)/4, $6
DATA bracketCompress<>+436(SB)/4, $7
DATA bracketCompress<>+440(SB)/4, $0
DATA bracketCompress<>+444(SB)/4, $0
DATA bracketCompress<>+448(SB)/4, $2
DATA bracketCompress<>+452(SB)/4, $3
DATA bracketCompress<>+456(SB)/4, $4
DATA bracketCompress<>+460(SB)/4, $5
DATA bracketCompress<>+464(SB)/4, $6
DATA bracketCompress<>+468(SB)/4, $7
DATA bracketCompress<>+472(SB)/4, $0
DATA bracketCompress<>+476(SB)/4, $0
DATA bracketCompress<>+480(SB)/4, $0
DATA bracketCompress<>+484(SB)/4, $1
DATA bracketCompress<>+488(SB)/4, $2
DATA bracketCompress<>+492(SB)/4, $3
DATA bracketCompress<>+496(SB)/4, $4
DATA bracketCompress<>+500(SB)/4, $5
DATA bracketCompress<>+504(SB)/4, $6
DATA bracketCompress<>+508(SB)/4, $7
GLOBL bracketCompress<>(SB), RODATA|NOPTR, $512
DATA bracketCount<>+0(SB)/1, $0
DATA bracketCount<>+1(SB)/1, $1
DATA bracketCount<>+2(SB)/1, $1
DATA bracketCount<>+3(SB)/1, $2
DATA bracketCount<>+4(SB)/1, $1
DATA bracketCount<>+5(SB)/1, $2
DATA bracketCount<>+6(SB)/1, $2
DATA bracketCount<>+7(SB)/1, $3
DATA bracketCount<>+8(SB)/1, $1
DATA bracketCount<>+9(SB)/1, $2
DATA bracketCount<>+10(SB)/1, $2
DATA bracketCount<>+11(SB)/1, $3
DATA bracketCount<>+12(SB)/1, $2
DATA bracketCount<>+13(SB)/1, $3
DATA bracketCount<>+14(SB)/1, $3
DATA bracketCount<>+15(SB)/1, $4
GLOBL bracketCount<>(SB), RODATA|NOPTR, $16

// func bracketPassAVX2(xs, buf []float64, lo, hi float64) (in, below int)
//
// bracketMedian's pass over the first len(xs)&^3 values, four a step: two
// ordered compares (v < lo, v > hi: both false for NaN, as in Go), VMOVMSKPD,
// and a compress store of the lanes that are neither to buf[in:]. Each store
// writes four values, the set lanes first, so buf needs three values of room
// past the last one kept; buf as long as xs has it.
TEXT ·bracketPassAVX2(SB), NOSPLIT, $0-80
	MOVQ         xs_base+0(FP), SI
	MOVQ         xs_len+8(FP), R8
	MOVQ         buf_base+24(FP), DI
	VBROADCASTSD lo+48(FP), Y14
	VBROADCASTSD hi+56(FP), Y15
	LEAQ         bracketCompress<>(SB), R13
	LEAQ         bracketCount<>(SB), R14
	ANDQ         $-4, R8
	SHLQ         $3, R8
	XORQ         AX, AX // the value at hand, in bytes
	XORQ         BX, BX // in
	XORQ         DX, DX // below
	CMPQ         AX, R8
	JAE          bracketDone

bracketLoop:
	VMOVUPD   (SI)(AX*1), Y0
	VCMPPD    $0x11, Y14, Y0, Y1 // v < lo, ordered
	VCMPPD    $0x1e, Y15, Y0, Y2 // v > hi, ordered
	VORPD     Y2, Y1, Y2
	VMOVMSKPD Y1, R10
	VMOVMSKPD Y2, R11
	XORQ      $15, R11 // the lanes inside
	MOVQ      R11, R12
	SHLQ      $5, R12
	VMOVDQU   (R13)(R12*1), Y3
	VPERMD    Y0, Y3, Y4
	VMOVUPD   Y4, (DI)(BX*8)
	MOVBQZX   (R14)(R11*1), R12
	ADDQ      R12, BX
	MOVBQZX   (R14)(R10*1), R12
	ADDQ      R12, DX
	ADDQ      $32, AX
	CMPQ      AX, R8
	JB        bracketLoop

bracketDone:
	MOVQ BX, in+64(FP)
	MOVQ DX, below+72(FP)
	VZEROUPPER
	RET

// func prunedFillAVX2(dst, src []complex128, rev []int, pad int)
//
// TransformPruned's broadcast fill: block b of pad values of dst (pad even)
// gets pad copies of src[rev[b·pad]], or of zero where that index is past
// src, one VBROADCASTF128 and pad/2 32-byte stores a block.
TEXT ·prunedFillAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ rev_base+48(FP), DX
	MOVQ pad+72(FP), R9
	SHLQ $4, R8
	ADDQ DI, R8 // R8: the end of dst
	MOVQ R9, R10
	SHLQ $3, R10 // R10: pad rev entries in bytes
	SHLQ $4, R9  // R9: a block in bytes
	CMPQ DI, R8
	JAE  fillDone

fillBlock:
	MOVQ   (DX), AX
	VXORPD Y0, Y0, Y0
	CMPQ   AX, CX
	JAE    fillStore
	SHLQ   $4, AX
	VBROADCASTF128 (SI)(AX*1), Y0

fillStore:
	XORQ R11, R11

fillLoop:
	VMOVUPD Y0, (DI)(R11*1)
	ADDQ    $32, R11
	CMPQ    R11, R9
	JB      fillLoop
	ADDQ    R9, DI
	ADDQ    R10, DX
	CMPQ    DI, R8
	JB      fillBlock

fillDone:
	VZEROUPPER
	RET

// func firstNotBelowAVX2(xs []float64, thr float64) int
//
// The index of the first of the first len(xs)&^3 values that is not below
// thr, or len(xs)&^3 when none is: four values a step, one ordered compare
// thr > v negated (NGT_UQ: true for NaN, as Go's !(v < thr)), VMOVMSKPD and
// BSFQ on the first step with a set lane.
TEXT ·firstNotBelowAVX2(SB), NOSPLIT, $0-40
	MOVQ         xs_base+0(FP), SI
	MOVQ         xs_len+8(FP), R8
	VBROADCASTSD thr+24(FP), Y15
	ANDQ         $-4, R8
	XORQ         AX, AX

notBelowLoop:
	CMPQ      AX, R8
	JAE       notBelowDone
	VCMPPD    $0x1a, (SI)(AX*8), Y15, Y0 // !(thr > v)
	VMOVMSKPD Y0, CX
	TESTQ     CX, CX
	JNZ       notBelowFound
	ADDQ      $4, AX
	JMP       notBelowLoop

notBelowFound:
	BSFQ CX, CX
	ADDQ CX, AX

notBelowDone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET
