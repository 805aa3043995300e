//go:build !noasm

#include "textflag.h"

// AVX2/FMA kernel set for the avx2 backend. Conventions:
//
//   - All kernels are leaf NOSPLIT functions taking raw pointers; bounds
//     are the caller's responsibility (the Go wrappers slice-check first).
//   - R14 (goroutine pointer) and X15/Y15 (ABIInternal zero register) are
//     never touched.
//   - Every kernel that executes VEX-256 instructions ends with VZEROUPPER
//     so SSE code after the call pays no transition penalty.
//   - Plan 9 operand order: VFMADD231PS m, y1, y2 means y2 += y1 * m.

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(dst, a *float32, n8 int, s float32)
//
// dst[i] += s*a[i] for i in [0, n8*8). One VMULPS + one VADDPS per lane:
// exactly the scalar rounding sequence (no FMA), so this path is
// bit-identical to axpyScalar. n8 must be >= 1.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n8+16(FP), CX
	VBROADCASTSS s+24(FP), Y0

axpy_loop:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNE     axpy_loop
	VZEROUPPER
	RET

// func scaleAVX2(dst, a *float32, n8 int, s float32)
//
// dst[i] = s*a[i] for i in [0, n8*8). Bit-identical to scaleScalar.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n8+16(FP), CX
	VBROADCASTSS s+24(FP), Y0

scale_loop:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNE     scale_loop
	VZEROUPPER
	RET

// func addIntoAVX2(dst, a *float32, n8 int)
//
// dst[i] += a[i] for i in [0, n8*8). Bit-identical to addIntoScalar.
TEXT ·addIntoAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n8+16(FP), CX

addinto_loop:
	VMOVUPS (SI), Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNE     addinto_loop
	VZEROUPPER
	RET

// func dotAVX2(a, b *float32, n int) float32
//
// Single-vector FMA dot product. Lane l accumulates elements with index
// ≡ l (mod 8) in ascending order; lanes combine through the balanced tree
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)); the n%8 remainder then folds in
// ascending with one mul and one add per element. This is the documented
// tolerance-mode reduction contract shared with the NT matmul kernels.
TEXT ·dotAVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   dot_reduce

dot_loop8:
	VMOVUPS     (SI), Y1
	VFMADD231PS (DX), Y1, Y0
	ADDQ        $32, SI
	ADDQ        $32, DX
	DECQ        BX
	JNE         dot_loop8

dot_reduce:
	// Balanced tree: after two VHADDPS each 128-bit half holds its own
	// 4-lane tree sum in every element; add high half onto low.
	VHADDPS      Y0, Y0, Y0
	VHADDPS      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDSS       X1, X0, X0
	ANDQ         $7, CX
	JZ           dot_done

dot_tail:
	VMOVSS (SI), X2
	VMULSS (DX), X2, X2
	VADDSS X2, X0, X0
	ADDQ   $4, SI
	ADDQ   $4, DX
	DECQ   CX
	JNE    dot_tail

dot_done:
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func nnQuadAVX2(drow, b0, b1, b2, b3 *float32, n8 int, a0, a1, a2, a3 float32)
//
// drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] for j in [0, n8*8),
// evaluated per element as (((a0*b0 + a1*b1) + a2*b2) + a3*b3) then added
// to drow — the exact rounding sequence of the scalar NN/TN quad kernel
// (separate VMULPS/VADDPS, no FMA), so the avx2 NN and TN paths stay
// bit-identical to scalar. n8 must be >= 1.
TEXT ·nnQuadAVX2(SB), NOSPLIT, $0-64
	MOVQ drow+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n8+40(FP), CX
	VBROADCASTSS a0+48(FP), Y8
	VBROADCASTSS a1+52(FP), Y9
	VBROADCASTSS a2+56(FP), Y10
	VBROADCASTSS a3+60(FP), Y11
	XORQ DX, DX

nnquad_loop:
	VMOVUPS (R8)(DX*1), Y0
	VMULPS  Y8, Y0, Y0
	VMOVUPS (R9)(DX*1), Y1
	VMULPS  Y9, Y1, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS (R10)(DX*1), Y2
	VMULPS  Y10, Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS (R11)(DX*1), Y3
	VMULPS  Y11, Y3, Y3
	VADDPS  Y3, Y0, Y0
	VMOVUPS (DI)(DX*1), Y4
	VADDPS  Y0, Y4, Y4
	VMOVUPS Y4, (DI)(DX*1)
	ADDQ    $32, DX
	DECQ    CX
	JNE     nnquad_loop
	VZEROUPPER
	RET

// func ntQuad2AVX2(a0, a1, b *float32, k8, kstride int, out *float32)
//
// Main-sum kernel of the register-blocked NT matmul: two a rows against
// four consecutive b rows (b, b+kstride, ..., b+3*kstride bytes), over the
// first k8*8 elements of k. Eight independent FMA accumulators (2 rows ×
// 4 columns) share every a and b load. Writes the eight raw column sums
// to out[0..7] (row0 in out[0..3], row1 in out[4..7]); the caller folds
// the k remainder and performs the store/accumulate, so every code path
// shares one per-column reduction contract (see dotAVX2). k8 may be 0,
// in which case out is zeroed.
TEXT ·ntQuad2AVX2(SB), NOSPLIT, $0-48
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ b+16(FP), R8
	MOVQ k8+24(FP), CX
	MOVQ kstride+32(FP), R13
	MOVQ out+40(FP), R12
	LEAQ (R8)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ DX, DX
	TESTQ CX, CX
	JZ   nt2_reduce

nt2_loop:
	VMOVUPS     (SI)(DX*1), Y8
	VMOVUPS     (DI)(DX*1), Y9
	VMOVUPS     (R8)(DX*1), Y10
	VMOVUPS     (R9)(DX*1), Y11
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VMOVUPS     (R10)(DX*1), Y10
	VMOVUPS     (R11)(DX*1), Y11
	VFMADD231PS Y10, Y8, Y2
	VFMADD231PS Y10, Y9, Y6
	VFMADD231PS Y11, Y8, Y3
	VFMADD231PS Y11, Y9, Y7
	ADDQ        $32, DX
	DECQ        CX
	JNE         nt2_loop

nt2_reduce:
	// Row 0: Y0..Y3 -> out[0..3]. Two VHADDPS interleave the four
	// accumulators so each 128-bit half of the result holds the four
	// per-column half-tree sums; adding the high half onto the low yields
	// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) per column — the dotAVX2 tree.
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X12
	VADDPS       X12, X0, X12
	VMOVUPS      X12, (R12)

	// Row 1: Y4..Y7 -> out[4..7].
	VHADDPS      Y5, Y4, Y4
	VHADDPS      Y7, Y6, Y6
	VHADDPS      Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X13
	VADDPS       X13, X4, X13
	VMOVUPS      X13, 16(R12)
	VZEROUPPER
	RET

// func ntQuad1AVX2(a, b *float32, k8, kstride int, out *float32)
//
// Single-row variant of ntQuad2AVX2: one a row against four b rows,
// writing the four raw column sums to out[0..3]. Identical per-column
// accumulation and reduction order to ntQuad2AVX2, so a row computed via
// the single path is bitwise identical to the same row computed as either
// half of a pair.
TEXT ·ntQuad1AVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), R8
	MOVQ k8+16(FP), CX
	MOVQ kstride+24(FP), R13
	MOVQ out+32(FP), R12
	LEAQ (R8)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ DX, DX
	TESTQ CX, CX
	JZ   nt1_reduce

nt1_loop:
	VMOVUPS     (SI)(DX*1), Y8
	VMOVUPS     (R8)(DX*1), Y10
	VMOVUPS     (R9)(DX*1), Y11
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VMOVUPS     (R10)(DX*1), Y10
	VMOVUPS     (R11)(DX*1), Y11
	VFMADD231PS Y10, Y8, Y2
	VFMADD231PS Y11, Y8, Y3
	ADDQ        $32, DX
	DECQ        CX
	JNE         nt1_loop

nt1_reduce:
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X12
	VADDPS       X12, X0, X12
	VMOVUPS      X12, (R12)
	VZEROUPPER
	RET

// func attnDotAVX2(dst, x, rows *float32, n, d8, ld int, scale float32)
//
// Attention score kernel: dst[t] = scale · Σ_c x[c]·rows[t·ld + c] over
// the first d8*8 elements of x, for t in [0, n). ld is the row stride in
// bytes. Keys run eight per pass — one x load feeds eight FMA
// accumulators — and the n%8 remainder one at a time. Both paths follow
// the dotAVX2 per-key contract (8 ascending FMA lane chains, balanced
// tree, then one multiply by scale), so a key's result does not depend on
// its position. d8 may be 0, in which case dst is zeroed.
TEXT ·attnDotAVX2(SB), NOSPLIT, $0-52
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ d8+32(FP), BX
	MOVQ ld+40(FP), R11
	VBROADCASTSS scale+48(FP), Y14
	LEAQ (R11)(R11*2), R12 // 3·ld
	MOVQ BX, R13
	SHLQ $5, R13           // bytes of one row the chunk loop walks

adot_block8:
	CMPQ CX, $8
	JLT  adot_single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ (R8)(R11*4), R9 // row 4 of the block
	MOVQ SI, AX
	MOVQ BX, DX
	TESTQ DX, DX
	JZ   adot8_reduce

adot8_loop:
	VMOVUPS     (AX), Y8
	VFMADD231PS (R8), Y8, Y0
	VFMADD231PS (R8)(R11*1), Y8, Y1
	VFMADD231PS (R8)(R11*2), Y8, Y2
	VFMADD231PS (R8)(R12*1), Y8, Y3
	VFMADD231PS (R9), Y8, Y4
	VFMADD231PS (R9)(R11*1), Y8, Y5
	VFMADD231PS (R9)(R11*2), Y8, Y6
	VFMADD231PS (R9)(R12*1), Y8, Y7
	ADDQ        $32, AX
	ADDQ        $32, R8
	ADDQ        $32, R9
	DECQ        DX
	JNE         adot8_loop

adot8_reduce:
	// The ntQuad interleave twice over: Y0 and Y4 each end with their four
	// keys' low-half tree sums in the low 128 bits and the high-half tree
	// sums in the high 128 bits; gathering the halves and adding low + high
	// gives eight keys' ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
	VHADDPS    Y1, Y0, Y0
	VHADDPS    Y3, Y2, Y2
	VHADDPS    Y2, Y0, Y0
	VHADDPS    Y5, Y4, Y4
	VHADDPS    Y7, Y6, Y6
	VHADDPS    Y6, Y4, Y4
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x31, Y4, Y0, Y9
	VADDPS     Y9, Y8, Y8
	VMULPS     Y14, Y8, Y8
	VMOVUPS    Y8, (DI)
	ADDQ       $32, DI
	SUBQ       R13, R8
	LEAQ       (R8)(R11*8), R8
	SUBQ       $8, CX
	JMP        adot_block8

adot_single:
	TESTQ CX, CX
	JZ    adot_done
	VXORPS Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ R8, R9
	MOVQ BX, DX
	TESTQ DX, DX
	JZ   adot1_reduce

adot1_loop:
	VMOVUPS     (AX), Y8
	VFMADD231PS (R9), Y8, Y0
	ADDQ        $32, AX
	ADDQ        $32, R9
	DECQ        DX
	JNE         adot1_loop

adot1_reduce:
	VHADDPS      Y0, Y0, Y0
	VHADDPS      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDSS       X1, X0, X0
	VMULSS       X14, X0, X0
	VMOVSS       X0, (DI)
	ADDQ         $4, DI
	ADDQ         R11, R8
	DECQ         CX
	JMP          adot_single

adot_done:
	VZEROUPPER
	RET

// func attnAxpyAVX2(dst, coef, rows *float32, n, d8, cstride, ld int)
//
// Attention accumulate kernel: dst[c] += Σ_{t<n} coef[t·cstride]·rows[t·ld + c]
// for c in [0, d8*8); cstride and ld are byte strides. Every dst element
// owns four FMA chains — chain i folds rows t ≡ i (mod 4) in ascending
// order from zero — and ends as dst + ((c0+c1) + (c2+c3)). Columns run 16
// per pass (two vectors × four chains fill the FMA pipeline), a trailing
// odd vector alone; the per-element order is the same in both.
// n and d8 must be >= 1.
TEXT ·attnAxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ coef+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ d8+32(FP), BX
	MOVQ cstride+40(FP), R10
	MOVQ ld+48(FP), R11
	LEAQ (R11)(R11*2), R12 // 3·ld
	LEAQ (R10)(R10*2), R13 // 3·cstride

aaxpy_cols16:
	CMPQ BX, $2
	JLT  aaxpy_cols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, AX
	MOVQ R8, DX
	MOVQ CX, R9
	SHRQ $2, R9
	JZ   aaxpy16_tail

aaxpy16_loop:
	VBROADCASTSS (AX), Y8
	VBROADCASTSS (AX)(R10*1), Y9
	VBROADCASTSS (AX)(R10*2), Y10
	VBROADCASTSS (AX)(R13*1), Y11
	VFMADD231PS  (DX), Y8, Y0
	VFMADD231PS  32(DX), Y8, Y1
	VFMADD231PS  (DX)(R11*1), Y9, Y2
	VFMADD231PS  32(DX)(R11*1), Y9, Y3
	VFMADD231PS  (DX)(R11*2), Y10, Y4
	VFMADD231PS  32(DX)(R11*2), Y10, Y5
	VFMADD231PS  (DX)(R12*1), Y11, Y6
	VFMADD231PS  32(DX)(R12*1), Y11, Y7
	LEAQ         (AX)(R10*4), AX
	LEAQ         (DX)(R11*4), DX
	DECQ         R9
	JNE          aaxpy16_loop

aaxpy16_tail:
	// The n%4 trailing rows continue chains 0, 1, 2 in order.
	MOVQ CX, R9
	ANDQ $3, R9
	JZ   aaxpy16_combine
	VBROADCASTSS (AX), Y8
	VFMADD231PS  (DX), Y8, Y0
	VFMADD231PS  32(DX), Y8, Y1
	DECQ         R9
	JZ           aaxpy16_combine
	VBROADCASTSS (AX)(R10*1), Y9
	VFMADD231PS  (DX)(R11*1), Y9, Y2
	VFMADD231PS  32(DX)(R11*1), Y9, Y3
	DECQ         R9
	JZ           aaxpy16_combine
	VBROADCASTSS (AX)(R10*2), Y10
	VFMADD231PS  (DX)(R11*2), Y10, Y4
	VFMADD231PS  32(DX)(R11*2), Y10, Y5

aaxpy16_combine:
	VADDPS  Y2, Y0, Y0
	VADDPS  Y6, Y4, Y4
	VADDPS  Y4, Y0, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  Y3, Y1, Y1
	VADDPS  Y7, Y5, Y5
	VADDPS  Y5, Y1, Y1
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, R8
	SUBQ    $2, BX
	JMP     aaxpy_cols16

aaxpy_cols8:
	TESTQ BX, BX
	JZ    aaxpy_done
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
	MOVQ SI, AX
	MOVQ R8, DX
	MOVQ CX, R9
	SHRQ $2, R9
	JZ   aaxpy8_tail

aaxpy8_loop:
	VBROADCASTSS (AX), Y8
	VBROADCASTSS (AX)(R10*1), Y9
	VBROADCASTSS (AX)(R10*2), Y10
	VBROADCASTSS (AX)(R13*1), Y11
	VFMADD231PS  (DX), Y8, Y0
	VFMADD231PS  (DX)(R11*1), Y9, Y2
	VFMADD231PS  (DX)(R11*2), Y10, Y4
	VFMADD231PS  (DX)(R12*1), Y11, Y6
	LEAQ         (AX)(R10*4), AX
	LEAQ         (DX)(R11*4), DX
	DECQ         R9
	JNE          aaxpy8_loop

aaxpy8_tail:
	MOVQ CX, R9
	ANDQ $3, R9
	JZ   aaxpy8_combine
	VBROADCASTSS (AX), Y8
	VFMADD231PS  (DX), Y8, Y0
	DECQ         R9
	JZ           aaxpy8_combine
	VBROADCASTSS (AX)(R10*1), Y9
	VFMADD231PS  (DX)(R11*1), Y9, Y2
	DECQ         R9
	JZ           aaxpy8_combine
	VBROADCASTSS (AX)(R10*2), Y10
	VFMADD231PS  (DX)(R11*2), Y10, Y4

aaxpy8_combine:
	VADDPS  Y2, Y0, Y0
	VADDPS  Y6, Y4, Y4
	VADDPS  Y4, Y0, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)

aaxpy_done:
	VZEROUPPER
	RET

// EXPNEG replaces Y1 = x (x <= 0 or NaN) with eˣ, clobbering Y2..Y8. It
// follows attention.go's expNeg — the same split-ln2 reduction, the same
// degree-7 polynomial and constants (·expTab: underflow, log2e, ln2Hi,
// ln2Lo, P0..P5, 1, 1.5·2²³), exactly 1 at 0, exactly 0 below expUnderflow,
// NaN propagated — but with fused multiply-adds, the polynomial in Estrin
// form and n rounded by the add-a-big-constant trick, which together cut
// the dependency chain to a third. Results are within 2 ULP of the
// correctly rounded value and may differ from the scalar function by an
// ULP.
//
//	Y4 = x < expUnderflow                       (the flush mask)
//	Y2 = x·log2e + 1.5·2²³: n = round(x·log2e) sits in its low mantissa bits
//	Y3 = float(n) = Y2 − 1.5·2²³
//	Y1 = r = x − n·ln2Hi − n·ln2Lo
//	Y3 = P(r) = (P0·r + P1)·r⁴ + ((P2·r + P3)·r² + (P4·r + P5))
//	Y3 = t = P(r)·r² + r
//	Y2 = 2ⁿ, built as bits(1.0) + Y2<<23 = (n+127)<<23
//	Y1 = t·2ⁿ + 2ⁿ, zeroed where Y4 is set
#define EXPNEG \
	VCMPPS       $1, ·expTab+0(SB), Y1, Y4 \
	VMOVUPS      ·expTab+352(SB), Y2       \
	VFMADD231PS  ·expTab+32(SB), Y1, Y2    \
	VSUBPS       ·expTab+352(SB), Y2, Y3   \
	VFNMADD231PS ·expTab+64(SB), Y3, Y1    \
	VFNMADD231PS ·expTab+96(SB), Y3, Y1    \
	VMULPS       Y1, Y1, Y5                \
	VMOVUPS      ·expTab+128(SB), Y3       \
	VFMADD213PS  ·expTab+160(SB), Y1, Y3   \
	VMOVUPS      ·expTab+192(SB), Y6       \
	VFMADD213PS  ·expTab+224(SB), Y1, Y6   \
	VMOVUPS      ·expTab+256(SB), Y7       \
	VFMADD213PS  ·expTab+288(SB), Y1, Y7   \
	VMULPS       Y5, Y5, Y8                \
	VFMADD213PS  Y7, Y5, Y6                \
	VFMADD213PS  Y6, Y8, Y3                \
	VFMADD213PS  Y1, Y5, Y3                \
	VPSLLD       $23, Y2, Y2               \
	VPADDD       ·expTab+320(SB), Y2, Y2   \
	VFMADD213PS  Y2, Y2, Y3                \
	VANDNPS      Y3, Y4, Y1

// func expSubAVX2(s *float32, n8 int, shift, prev float32) (sum, alpha float32)
//
// s[j] = exp(s[j] − shift) for j in [0, n8*8), returning the sum of the
// results — lane l adds the elements with index ≡ l (mod 8) in ascending
// order and the lanes combine through the dotAVX2 tree — and
// alpha = exp(prev − shift), the online softmax's rescale factor, from the
// same vector code (exactly 1, without it, when prev == shift). n8 must
// be >= 1.
TEXT ·expSubAVX2(SB), NOSPLIT, $0-32
	MOVQ s+0(FP), DI
	MOVQ n8+8(FP), CX
	VBROADCASTSS shift+16(FP), Y12
	VXORPS Y0, Y0, Y0

expsub_loop:
	VMOVUPS (DI), Y1
	VSUBPS  Y12, Y1, Y1
	EXPNEG
	VMOVUPS Y1, (DI)
	VADDPS  Y1, Y0, Y0
	ADDQ    $32, DI
	DECQ    CX
	JNE     expsub_loop
	VMOVSS       ·expTab+320(SB), X1
	VMOVSS       prev+20(FP), X2
	VUCOMISS     X12, X2
	JP           expsub_alpha // a NaN takes the long way and comes out NaN
	JEQ          expsub_sum

expsub_alpha:
	VBROADCASTSS prev+20(FP), Y1
	VSUBPS       Y12, Y1, Y1
	EXPNEG

expsub_sum:
	VMOVSS       X1, alpha+28(FP)
	VHADDPS      Y0, Y0, Y0
	VHADDPS      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDSS       X1, X0, X0
	VMOVSS       X0, sum+24(FP)
	VZEROUPPER
	RET

// func rowMaxAVX2(s *float32, n8 int) float32
//
// Returns the largest of s[0 : n8*8]. A maximum is exact, so the order it
// is taken in does not matter; NaN elements are unspecified (the row is
// NaN downstream either way). n8 must be >= 1.
TEXT ·rowMaxAVX2(SB), NOSPLIT, $0-20
	MOVQ s+0(FP), DI
	MOVQ n8+8(FP), CX
	VMOVUPS (DI), Y0
	JMP  rowmax_next

rowmax_loop:
	VMAXPS (DI), Y0, Y0

rowmax_next:
	ADDQ $32, DI
	DECQ CX
	JNE  rowmax_loop
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXSS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func attnDsAVX2(ds, p *float32, n8 int, scale, delta float32)
//
// ds[j] = (scale·p[j])·(ds[j] − delta) for j in [0, n8*8): the softmax
// Jacobian row of the attention backward, with the scalar loop's rounding
// sequence (no FMA) — bit-identical to it. n8 must be >= 1.
TEXT ·attnDsAVX2(SB), NOSPLIT, $0-32
	MOVQ ds+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ n8+16(FP), CX
	VBROADCASTSS scale+24(FP), Y2
	VBROADCASTSS delta+28(FP), Y3

attnds_loop:
	VMULPS  (SI), Y2, Y0
	VMOVUPS (DI), Y1
	VSUBPS  Y3, Y1, Y1
	VMULPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNE     attnds_loop
	VZEROUPPER
	RET

// SIGMOID takes v in Y11 and leaves σ(|v|) = 1/(1+e) in Y3 and
// σ(−|v|) = e/(1+e), as e·Y3, in Y4, where e = exp(−|v|) by EXPNEG; Y13
// must hold the sign mask. Clobbers Y1, Y2, Y5..Y8.
#define SIGMOID \
	VORPS   Y13, Y11, Y1            \
	EXPNEG                          \
	VADDPS  ·expTab+320(SB), Y1, Y2 \
	VMOVUPS ·expTab+320(SB), Y3     \
	VDIVPS  Y2, Y3, Y3              \
	VMULPS  Y3, Y1, Y4

// func siluAVX2(dst, a *float32, n8 int)
//
// dst[i] = a[i]·σ(a[i]) for i in [0, n8*8); σ picks 1/(1+e) or e/(1+e) by
// the sign bit of a[i]. dst may alias a. n8 must be >= 1.
TEXT ·siluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n8+16(FP), CX
	VPCMPEQD Y13, Y13, Y13
	VPSLLD   $31, Y13, Y13

silu_loop:
	VMOVUPS   (SI), Y11
	SIGMOID
	VBLENDVPS Y11, Y4, Y3, Y5
	VMULPS    Y5, Y11, Y5
	VMOVUPS   Y5, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNE       silu_loop
	VZEROUPPER
	RET

// func siluBackwardAVX2(dst, x, dy *float32, n8 int)
//
// dst[i] = dy[i]·(s + x[i]·s·t) with s = σ(x[i]) and t = σ(−x[i]) = 1 − s,
// for i in [0, n8*8). dst may alias dy. n8 must be >= 1.
TEXT ·siluBackwardAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ dy+16(FP), DX
	MOVQ n8+24(FP), CX
	VPCMPEQD Y13, Y13, Y13
	VPSLLD   $31, Y13, Y13

silubwd_loop:
	VMOVUPS   (SI), Y11
	SIGMOID
	VBLENDVPS Y11, Y4, Y3, Y5 // s
	VBLENDVPS Y11, Y3, Y4, Y2 // t
	VMULPS    Y5, Y11, Y1
	VMULPS    Y2, Y1, Y1
	VADDPS    Y1, Y5, Y1
	VMULPS    (DX), Y1, Y1
	VMOVUPS   Y1, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, DI
	DECQ      CX
	JNE       silubwd_loop
	VZEROUPPER
	RET
