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

// func addAVX2(dst, a, b *float32, n8 int)
//
// dst[i] = a[i] + b[i] for i in [0, n8*8); dst may be a or b. Bit-identical
// to addScalar.
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n8+24(FP), CX

add_loop:
	VMOVUPS (SI), Y1
	VADDPS  (DX), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNE     add_loop
	VZEROUPPER
	RET

// func mulAVX2(dst, a, b *float32, n8 int)
//
// dst[i] = a[i] * b[i] for i in [0, n8*8); dst may be a or b. Bit-identical
// to mulScalar.
TEXT ·mulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n8+24(FP), CX

mul_loop:
	VMOVUPS (SI), Y1
	VMULPS  (DX), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNE     mul_loop
	VZEROUPPER
	RET

// func dotAVX2(a, b *float32, n int) float32
//
// Single-vector FMA dot product. Lane l accumulates elements with index
// ≡ l (mod 8) in ascending order; lanes combine through the balanced tree
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)); the n%8 remainder then folds in
// ascending with one mul and one add per element: the documented
// tolerance-mode contract of DotF32, the only lane-split reduction.
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

// The GEMM micro-kernel under the three matmuls and attention's tile
// products. Every output element is one ascending FMA chain over k in a
// single vector lane, starting from 0 (store) or from its own c element
// (accumulate): a pure function of its a row, its b column and k, whatever
// tile, panel or call it was computed in.
//
// Register tile: 6 rows × 16 columns in Y0..Y11 (row r in Y(2r), Y(2r+1)),
// the two b vectors of the k step in Y12/Y13, the broadcast a element in
// Y14. Each k step is 2 b loads + 6 broadcasts feeding 12 FMAs, so the
// tile runs at the FMA rate with b read in place. The last m%6 rows run
// the same loop with fewer rows; the last n%16 columns run 8 wide through
// masked loads and stores (Y13 holds the mask), which keeps every lane on
// the identical chain.
//
//	SI  a cursor         R8  ars     R9  3·ars    R10 5·ars    R11 aks
//	DI  b cursor / c row BX  ldb     AX  b tile   DX  c tile   R12 ldc
//	CX  k countdown      R13 columns left         R15 rows in this panel

#define GEMM_NEXT ADDQ R11, SI; ADDQ BX, DI; DECQ CX

#define GEMM_B16 VMOVUPS (DI), Y12; VMOVUPS 32(DI), Y13
// The panels of up to four rows also touch the b row's next tile: with so
// few rows per b element the product runs at memory speed when b is not
// cache-resident (an M = 8 microbatch against a 700 KB weight matrix), and
// the column-tile sweep is a stride the hardware prefetcher does not follow.
#define GEMM_B16_FEW GEMM_B16; PREFETCHT0 127(DI)
#define GEMM_R0_16 VBROADCASTSS (SI), Y14; VFMADD231PS Y12, Y14, Y0; VFMADD231PS Y13, Y14, Y1
#define GEMM_R1_16 VBROADCASTSS (SI)(R8*1), Y14; VFMADD231PS Y12, Y14, Y2; VFMADD231PS Y13, Y14, Y3
#define GEMM_R2_16 VBROADCASTSS (SI)(R8*2), Y14; VFMADD231PS Y12, Y14, Y4; VFMADD231PS Y13, Y14, Y5
#define GEMM_R3_16 VBROADCASTSS (SI)(R9*1), Y14; VFMADD231PS Y12, Y14, Y6; VFMADD231PS Y13, Y14, Y7
#define GEMM_R4_16 VBROADCASTSS (SI)(R8*4), Y14; VFMADD231PS Y12, Y14, Y8; VFMADD231PS Y13, Y14, Y9
#define GEMM_R5_16 VBROADCASTSS (SI)(R10*1), Y14; VFMADD231PS Y12, Y14, Y10; VFMADD231PS Y13, Y14, Y11

#define GEMM_B8 VMASKMOVPS (DI), Y13, Y12
#define GEMM_R0_8 VBROADCASTSS (SI), Y14; VFMADD231PS Y12, Y14, Y0
#define GEMM_R1_8 VBROADCASTSS (SI)(R8*1), Y14; VFMADD231PS Y12, Y14, Y2
#define GEMM_R2_8 VBROADCASTSS (SI)(R8*2), Y14; VFMADD231PS Y12, Y14, Y4
#define GEMM_R3_8 VBROADCASTSS (SI)(R9*1), Y14; VFMADD231PS Y12, Y14, Y6
#define GEMM_R4_8 VBROADCASTSS (SI)(R8*4), Y14; VFMADD231PS Y12, Y14, Y8
#define GEMM_R5_8 VBROADCASTSS (SI)(R10*1), Y14; VFMADD231PS Y12, Y14, Y10

// func gemmAVX2(a *float32, ars, aks uintptr, b *float32, ldb uintptr, c *float32, ldc uintptr, m, n, k int, acc bool)
//
// c[i,j] = (acc ? c[i,j] : 0) + Σ_p a[i·ars + p·aks]·b[p·ldb + j] for i < m,
// j < n, with every stride in bytes: NN passes (row stride, 4) for a, TN
// (4, row stride). m and n must be >= 1; k may be 0.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-81
	MOVQ ars+8(FP), R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	MOVQ aks+16(FP), R11
	MOVQ ldb+32(FP), BX
	MOVQ ldc+48(FP), R12

gemm_panel:
	// One panel: 6 rows (fewer at the bottom) across all n columns. A last
	// 7 or 8 rows split 4 + 3 or 4 + 4 instead of 6 + 1 or 6 + 2: one- and
	// two-row panels have too few chains to cover the FMA latency. a, c
	// and m live in their argument slots and advance by a panel below.
	MOVQ m+56(FP), R15
	CMPQ R15, $6
	JLE  gemm_panel_rows
	CMPQ R15, $8
	MOVQ $6, R15
	JG   gemm_panel_rows
	MOVQ $4, R15

gemm_panel_rows:
	MOVQ b+24(FP), AX
	MOVQ c+40(FP), DX
	MOVQ n+64(FP), R13

gemm_tile16:
	CMPQ R13, $16
	JLT  gemm_tile8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	CMPB acc+80(FP), $0
	JE   gemm_k16
	MOVQ DX, DI
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	CMPQ R15, $1
	JE   gemm_k16
	ADDQ R12, DI
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	CMPQ R15, $2
	JE   gemm_k16
	ADDQ R12, DI
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	CMPQ R15, $3
	JE   gemm_k16
	ADDQ R12, DI
	VMOVUPS (DI), Y6
	VMOVUPS 32(DI), Y7
	CMPQ R15, $4
	JE   gemm_k16
	ADDQ R12, DI
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	CMPQ R15, $5
	JE   gemm_k16
	ADDQ R12, DI
	VMOVUPS (DI), Y10
	VMOVUPS 32(DI), Y11

gemm_k16:
	MOVQ a+0(FP), SI
	MOVQ AX, DI
	MOVQ k+72(FP), CX
	TESTQ CX, CX
	JZ   gemm_store16
	CMPQ R15, $6
	JE   gemm_k16_6
	CMPQ R15, $5
	JE   gemm_k16_5
	CMPQ R15, $4
	JE   gemm_k16_4
	CMPQ R15, $3
	JE   gemm_k16_3
	CMPQ R15, $2
	JE   gemm_k16_2

gemm_k16_1:
	GEMM_B16_FEW
	GEMM_R0_16
	GEMM_NEXT
	JNE  gemm_k16_1
	JMP  gemm_store16

gemm_k16_2:
	GEMM_B16_FEW
	GEMM_R0_16
	GEMM_R1_16
	GEMM_NEXT
	JNE  gemm_k16_2
	JMP  gemm_store16

gemm_k16_3:
	GEMM_B16_FEW
	GEMM_R0_16
	GEMM_R1_16
	GEMM_R2_16
	GEMM_NEXT
	JNE  gemm_k16_3
	JMP  gemm_store16

gemm_k16_4:
	GEMM_B16_FEW
	GEMM_R0_16
	GEMM_R1_16
	GEMM_R2_16
	GEMM_R3_16
	GEMM_NEXT
	JNE  gemm_k16_4
	JMP  gemm_store16

gemm_k16_5:
	GEMM_B16
	GEMM_R0_16
	GEMM_R1_16
	GEMM_R2_16
	GEMM_R3_16
	GEMM_R4_16
	GEMM_NEXT
	JNE  gemm_k16_5
	JMP  gemm_store16

gemm_k16_6:
	GEMM_B16
	GEMM_R0_16
	GEMM_R1_16
	GEMM_R2_16
	GEMM_R3_16
	GEMM_R4_16
	GEMM_R5_16
	GEMM_NEXT
	JNE  gemm_k16_6

gemm_store16:
	MOVQ DX, DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	CMPQ R15, $1
	JE   gemm_next16
	ADDQ R12, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	CMPQ R15, $2
	JE   gemm_next16
	ADDQ R12, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	CMPQ R15, $3
	JE   gemm_next16
	ADDQ R12, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	CMPQ R15, $4
	JE   gemm_next16
	ADDQ R12, DI
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	CMPQ R15, $5
	JE   gemm_next16
	ADDQ R12, DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, 32(DI)

gemm_next16:
	ADDQ $64, AX
	ADDQ $64, DX
	SUBQ $16, R13
	JMP  gemm_tile16

gemm_tile8:
	// The last n%16 columns, up to 8 at a time under the lane mask
	// ·gemmMask[8−w : 16−w] (w ones, then zeros).
	TESTQ R13, R13
	JLE  gemm_next_panel
	MOVQ $8, CX
	CMPQ R13, $8
	JGE  gemm_mask8
	MOVQ R13, CX

gemm_mask8:
	LEAQ ·gemmMask+32(SB), DI
	SHLQ $2, CX
	SUBQ CX, DI
	VMOVDQU (DI), Y13
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
	VXORPS Y8, Y8, Y8
	VXORPS Y10, Y10, Y10
	CMPB acc+80(FP), $0
	JE   gemm_k8
	MOVQ DX, DI
	VMASKMOVPS (DI), Y13, Y0
	CMPQ R15, $1
	JE   gemm_k8
	ADDQ R12, DI
	VMASKMOVPS (DI), Y13, Y2
	CMPQ R15, $2
	JE   gemm_k8
	ADDQ R12, DI
	VMASKMOVPS (DI), Y13, Y4
	CMPQ R15, $3
	JE   gemm_k8
	ADDQ R12, DI
	VMASKMOVPS (DI), Y13, Y6
	CMPQ R15, $4
	JE   gemm_k8
	ADDQ R12, DI
	VMASKMOVPS (DI), Y13, Y8
	CMPQ R15, $5
	JE   gemm_k8
	ADDQ R12, DI
	VMASKMOVPS (DI), Y13, Y10

gemm_k8:
	MOVQ a+0(FP), SI
	MOVQ AX, DI
	MOVQ k+72(FP), CX
	TESTQ CX, CX
	JZ   gemm_store8
	CMPQ R15, $6
	JE   gemm_k8_6
	CMPQ R15, $5
	JE   gemm_k8_5
	CMPQ R15, $4
	JE   gemm_k8_4
	CMPQ R15, $3
	JE   gemm_k8_3
	CMPQ R15, $2
	JE   gemm_k8_2

gemm_k8_1:
	GEMM_B8
	GEMM_R0_8
	GEMM_NEXT
	JNE  gemm_k8_1
	JMP  gemm_store8

gemm_k8_2:
	GEMM_B8
	GEMM_R0_8
	GEMM_R1_8
	GEMM_NEXT
	JNE  gemm_k8_2
	JMP  gemm_store8

gemm_k8_3:
	GEMM_B8
	GEMM_R0_8
	GEMM_R1_8
	GEMM_R2_8
	GEMM_NEXT
	JNE  gemm_k8_3
	JMP  gemm_store8

gemm_k8_4:
	GEMM_B8
	GEMM_R0_8
	GEMM_R1_8
	GEMM_R2_8
	GEMM_R3_8
	GEMM_NEXT
	JNE  gemm_k8_4
	JMP  gemm_store8

gemm_k8_5:
	GEMM_B8
	GEMM_R0_8
	GEMM_R1_8
	GEMM_R2_8
	GEMM_R3_8
	GEMM_R4_8
	GEMM_NEXT
	JNE  gemm_k8_5
	JMP  gemm_store8

gemm_k8_6:
	GEMM_B8
	GEMM_R0_8
	GEMM_R1_8
	GEMM_R2_8
	GEMM_R3_8
	GEMM_R4_8
	GEMM_R5_8
	GEMM_NEXT
	JNE  gemm_k8_6

gemm_store8:
	MOVQ DX, DI
	VMASKMOVPS Y0, Y13, (DI)
	CMPQ R15, $1
	JE   gemm_next8
	ADDQ R12, DI
	VMASKMOVPS Y2, Y13, (DI)
	CMPQ R15, $2
	JE   gemm_next8
	ADDQ R12, DI
	VMASKMOVPS Y4, Y13, (DI)
	CMPQ R15, $3
	JE   gemm_next8
	ADDQ R12, DI
	VMASKMOVPS Y6, Y13, (DI)
	CMPQ R15, $4
	JE   gemm_next8
	ADDQ R12, DI
	VMASKMOVPS Y8, Y13, (DI)
	CMPQ R15, $5
	JE   gemm_next8
	ADDQ R12, DI
	VMASKMOVPS Y10, Y13, (DI)

gemm_next8:
	ADDQ $32, AX
	ADDQ $32, DX
	SUBQ $8, R13
	JMP  gemm_tile8

gemm_next_panel:
	MOVQ  R15, CX
	IMULQ R8, CX
	ADDQ  CX, a+0(FP)
	MOVQ  R15, CX
	IMULQ R12, CX
	ADDQ  CX, c+40(FP)
	SUBQ  R15, m+56(FP)
	JG    gemm_panel
	VZEROUPPER
	RET

// func transposeScaleAVX2(dst *float32, ldd uintptr, src *float32, lds uintptr, rb, cb int, scale float32)
//
// dst[c·ldd + r] = scale·src[r·lds + c] for r < 8·rb, c < 8·cb (strides in
// bytes), one 8×8 block at a time: the rows are scaled as they load, then
// interleaved pairwise (UNPCK), by fours (SHUFPS) and across the two
// 128-bit halves (PERM2F128). rb and cb must be >= 1.
TEXT ·transposeScaleAVX2(SB), NOSPLIT, $0-52
	MOVQ dst+0(FP), R13
	MOVQ ldd+8(FP), R10
	MOVQ src+16(FP), R12
	MOVQ lds+24(FP), R8
	MOVQ rb+32(FP), BX
	VBROADCASTSS scale+48(FP), Y12
	LEAQ (R8)(R8*2), R9   // 3·lds
	LEAQ (R10)(R10*2), R11 // 3·ldd

trsp_rows:
	MOVQ R12, SI
	MOVQ R13, DI
	MOVQ cb+40(FP), CX

trsp_block:
	LEAQ   (SI)(R8*4), AX
	VMULPS (SI), Y12, Y0
	VMULPS (SI)(R8*1), Y12, Y1
	VMULPS (SI)(R8*2), Y12, Y2
	VMULPS (SI)(R9*1), Y12, Y3
	VMULPS (AX), Y12, Y4
	VMULPS (AX)(R8*1), Y12, Y5
	VMULPS (AX)(R8*2), Y12, Y6
	VMULPS (AX)(R9*1), Y12, Y7

	// Pairs: Y8, Y9 = rows 0,1; Y0, Y1 = rows 2,3; Y2, Y3 = rows 4,5;
	// Y4, Y5 = rows 6,7 (low, high halves of each 128-bit lane).
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y0
	VUNPCKHPS Y3, Y2, Y1
	VUNPCKLPS Y5, Y4, Y2
	VUNPCKHPS Y5, Y4, Y3
	VUNPCKLPS Y7, Y6, Y4
	VUNPCKHPS Y7, Y6, Y5

	// Fours: columns c and c+4 of rows 0..3 in Y6, Y7, Y10, Y11 (c = 0..3),
	// of rows 4..7 in Y8, Y9, Y0, Y1.
	VSHUFPS $0x44, Y0, Y8, Y6
	VSHUFPS $0xee, Y0, Y8, Y7
	VSHUFPS $0x44, Y1, Y9, Y10
	VSHUFPS $0xee, Y1, Y9, Y11
	VSHUFPS $0x44, Y4, Y2, Y8
	VSHUFPS $0xee, Y4, Y2, Y9
	VSHUFPS $0x44, Y5, Y3, Y0
	VSHUFPS $0xee, Y5, Y3, Y1

	// Halves: low lanes make columns 0..3, high lanes columns 4..7.
	LEAQ       (DI)(R10*4), DX
	VPERM2F128 $0x20, Y8, Y6, Y2
	VMOVUPS    Y2, (DI)
	VPERM2F128 $0x20, Y9, Y7, Y3
	VMOVUPS    Y3, (DI)(R10*1)
	VPERM2F128 $0x20, Y0, Y10, Y4
	VMOVUPS    Y4, (DI)(R10*2)
	VPERM2F128 $0x20, Y1, Y11, Y5
	VMOVUPS    Y5, (DI)(R11*1)
	VPERM2F128 $0x31, Y8, Y6, Y2
	VMOVUPS    Y2, (DX)
	VPERM2F128 $0x31, Y9, Y7, Y3
	VMOVUPS    Y3, (DX)(R10*1)
	VPERM2F128 $0x31, Y0, Y10, Y4
	VMOVUPS    Y4, (DX)(R10*2)
	VPERM2F128 $0x31, Y1, Y11, Y5
	VMOVUPS    Y5, (DX)(R11*1)

	ADDQ $32, SI          // the next 8 columns of src ...
	LEAQ (DI)(R10*8), DI  // ... are the next 8 rows of dst
	DECQ CX
	JNE  trsp_block
	LEAQ (R12)(R8*8), R12
	ADDQ $32, R13
	DECQ BX
	JNE  trsp_rows
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

// func fmaSpinAVX2(iters int)
//
// The FMA-peak probe: iters rounds of 12 independent FMA chains (the GEMM
// tile's count) on registers, no memory touched — 12·8·2 flop a round at
// whatever rate the core's FMA ports sustain. The operands are zeros, which
// run at full speed. iters must be >= 1.
TEXT ·fmaSpinAVX2(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8; VXORPS Y9, Y9, Y9; VXORPS Y10, Y10, Y10; VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12; VXORPS Y13, Y13, Y13

fmaspin_loop:
	VFMADD231PS Y12, Y13, Y0; VFMADD231PS Y12, Y13, Y1; VFMADD231PS Y12, Y13, Y2; VFMADD231PS Y12, Y13, Y3
	VFMADD231PS Y12, Y13, Y4; VFMADD231PS Y12, Y13, Y5; VFMADD231PS Y12, Y13, Y6; VFMADD231PS Y12, Y13, Y7
	VFMADD231PS Y12, Y13, Y8; VFMADD231PS Y12, Y13, Y9; VFMADD231PS Y12, Y13, Y10; VFMADD231PS Y12, Y13, Y11
	DECQ CX
	JNE  fmaspin_loop
	VZEROUPPER
	RET
