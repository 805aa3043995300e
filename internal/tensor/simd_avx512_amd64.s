//go:build !noasm

#include "textflag.h"

// The 16-lane GEMM micro-kernel of the avx512 backend: gemmAVX2's product
// (simd_avx2_amd64.s) on ZMM registers, for every row. Every output element
// is the same ascending FMA chain over k in a lane of its own, from 0
// (store) or from its own c element (accumulate), so the two kernels
// compute the same bits and gemm() may hand either any of the rows.
//
// Register tile: up to 12 rows × 32 columns in Z0..Z23 (row r in Z(2r),
// Z(2r+1)), the two b vectors of the k step in Z24/Z25, the broadcast a
// element alternating Z26/Z27. Rows go in panels of 12 while 12 are left,
// then in one panel each of the largest of 8, 4, 2 and 1 that fit, so the
// m%12 rows of a product take at most three panels — the 8 of a 32-row
// attention tile or a 512-row activation, the 4 of a 64-row one, one. A
// 12-row k step is 2 b loads + 12 broadcasts feeding 24 FMAs; panels of at
// most 8 rows also prefetch the b row's next column tile, as gemmAVX2's
// few-row panels do. Columns [0, 16) of a tile load and store under K1,
// columns [16, 32) under K2 — all ones until the last n%32 columns, where
// the masked lanes load zeros and store nothing — and a tile of at most 16
// columns runs the k loop on the even registers alone. Conventions as in
// simd_avx2_amd64.s.
//
//	SI  a cursor, rows 0–5    R8  ars     R9  3·ars    R10 5·ars    R11 aks
//	R15 a cursor, rows 6–11   BX  ldb     AX  b tile   DX  c tile   R12 ldc
//	DI  b cursor / c row      CX  k countdown          R13 columns left
//	h-8(SP) the panel's rows

#define GEMM512_ZERO(c0, c1, c2, c3) VPXORD c0, c0, c0; VPXORD c1, c1, c1; VPXORD c2, c2, c2; VPXORD c3, c3, c3
#define GEMM512_LOAD(c0, c1) VMOVUPS.Z (DI), K1, c0; VMOVUPS.Z 64(DI), K2, c1; ADDQ R12, DI
#define GEMM512_STORE(c0, c1) VMOVUPS c0, K1, (DI); VMOVUPS c1, K2, 64(DI); ADDQ R12, DI
#define GEMM512_ROW32(a, za, c0, c1) VBROADCASTSS a, za; VFMADD231PS Z24, za, c0; VFMADD231PS Z25, za, c1
#define GEMM512_ROW16(a, za, c0) VBROADCASTSS a, za; VFMADD231PS Z24, za, c0
#define GEMM512_NEXT ADDQ R11, SI; ADDQ R11, R15; ADDQ BX, DI; DECQ CX
#define GEMM512_B32 VMOVUPS.Z (DI), K1, Z24; VMOVUPS.Z 64(DI), K2, Z25
#define GEMM512_B32_FEW GEMM512_B32; PREFETCHT0 191(DI); PREFETCHT0 255(DI)
#define GEMM512_B16 VMOVUPS.Z (DI), K1, Z24

// func gemmAVX512(a *float32, ars, aks uintptr, b *float32, ldb uintptr, c *float32, ldc uintptr, m, n, k int, acc bool)
//
// gemmAVX2's contract — strides in bytes, NN passes (row stride, 4) for a,
// TN (4, row stride) — narrowed to what gemm() sends here: m, n and k all
// >= 1.
TEXT ·gemmAVX512(SB), NOSPLIT, $8-81
	MOVQ ars+8(FP), R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	MOVQ aks+16(FP), R11
	MOVQ ldb+32(FP), BX
	MOVQ ldc+48(FP), R12

gemm512_panel:
	// One panel: h rows across all n columns. a, c and m live in their
	// argument slots and advance by the panel below.
	MOVQ m+56(FP), CX
	MOVQ $12, DI
	CMPQ CX, DI
	JGE  gemm512_rows
	MOVQ $8, DI
	CMPQ CX, DI
	JGE  gemm512_rows
	MOVQ $4, DI
	CMPQ CX, DI
	JGE  gemm512_rows
	MOVQ $2, DI
	CMPQ CX, DI
	JGE  gemm512_rows
	MOVQ $1, DI

gemm512_rows:
	MOVQ DI, h-8(SP)
	MOVQ b+24(FP), AX
	MOVQ c+40(FP), DX
	MOVQ n+64(FP), R13

gemm512_tile:
	// K2:K1 = the low min(columns left, 32) bits set.
	MOVQ  $32, CX
	CMPQ  R13, CX
	CMOVQLT R13, CX
	MOVQ  $1, DI
	SHLQ  CX, DI
	DECQ  DI
	KMOVW DI, K1
	SHRQ  $16, DI
	KMOVW DI, K2
	GEMM512_ZERO(Z0, Z1, Z2, Z3)
	GEMM512_ZERO(Z4, Z5, Z6, Z7)
	GEMM512_ZERO(Z8, Z9, Z10, Z11)
	GEMM512_ZERO(Z12, Z13, Z14, Z15)
	GEMM512_ZERO(Z16, Z17, Z18, Z19)
	GEMM512_ZERO(Z20, Z21, Z22, Z23)
	CMPB acc+80(FP), $0
	JE   gemm512_k
	MOVQ DX, DI
	MOVQ h-8(SP), CX
	GEMM512_LOAD(Z0, Z1)
	DECQ CX
	JZ   gemm512_k
	GEMM512_LOAD(Z2, Z3)
	DECQ CX
	JZ   gemm512_k
	GEMM512_LOAD(Z4, Z5)
	GEMM512_LOAD(Z6, Z7)
	SUBQ $2, CX
	JZ   gemm512_k
	GEMM512_LOAD(Z8, Z9)
	GEMM512_LOAD(Z10, Z11)
	GEMM512_LOAD(Z12, Z13)
	GEMM512_LOAD(Z14, Z15)
	SUBQ $4, CX
	JZ   gemm512_k
	GEMM512_LOAD(Z16, Z17)
	GEMM512_LOAD(Z18, Z19)
	GEMM512_LOAD(Z20, Z21)
	GEMM512_LOAD(Z22, Z23)

gemm512_k:
	MOVQ a+0(FP), SI
	LEAQ (SI)(R9*2), R15
	MOVQ AX, DI
	MOVQ k+72(FP), CX
	CMPQ R13, $16
	JLE  gemm512_k16
	CMPQ h-8(SP), $8
	JLT  gemm512_k32_4
	JE   gemm512_k32_8

gemm512_k32_12:
	GEMM512_B32
	GEMM512_ROW32((SI), Z26, Z0, Z1)
	GEMM512_ROW32((SI)(R8*1), Z27, Z2, Z3)
	GEMM512_ROW32((SI)(R8*2), Z26, Z4, Z5)
	GEMM512_ROW32((SI)(R9*1), Z27, Z6, Z7)
	GEMM512_ROW32((SI)(R8*4), Z26, Z8, Z9)
	GEMM512_ROW32((SI)(R10*1), Z27, Z10, Z11)
	GEMM512_ROW32((R15), Z26, Z12, Z13)
	GEMM512_ROW32((R15)(R8*1), Z27, Z14, Z15)
	GEMM512_ROW32((R15)(R8*2), Z26, Z16, Z17)
	GEMM512_ROW32((R15)(R9*1), Z27, Z18, Z19)
	GEMM512_ROW32((R15)(R8*4), Z26, Z20, Z21)
	GEMM512_ROW32((R15)(R10*1), Z27, Z22, Z23)
	GEMM512_NEXT
	JNE  gemm512_k32_12
	JMP  gemm512_store

gemm512_k32_8:
	GEMM512_B32_FEW
	GEMM512_ROW32((SI), Z26, Z0, Z1)
	GEMM512_ROW32((SI)(R8*1), Z27, Z2, Z3)
	GEMM512_ROW32((SI)(R8*2), Z26, Z4, Z5)
	GEMM512_ROW32((SI)(R9*1), Z27, Z6, Z7)
	GEMM512_ROW32((SI)(R8*4), Z26, Z8, Z9)
	GEMM512_ROW32((SI)(R10*1), Z27, Z10, Z11)
	GEMM512_ROW32((R15), Z26, Z12, Z13)
	GEMM512_ROW32((R15)(R8*1), Z27, Z14, Z15)
	GEMM512_NEXT
	JNE  gemm512_k32_8
	JMP  gemm512_store

gemm512_k32_4:
	CMPQ h-8(SP), $2
	JLT  gemm512_k32_1
	JE   gemm512_k32_2

gemm512_k32_4_loop:
	GEMM512_B32_FEW
	GEMM512_ROW32((SI), Z26, Z0, Z1)
	GEMM512_ROW32((SI)(R8*1), Z27, Z2, Z3)
	GEMM512_ROW32((SI)(R8*2), Z26, Z4, Z5)
	GEMM512_ROW32((SI)(R9*1), Z27, Z6, Z7)
	GEMM512_NEXT
	JNE  gemm512_k32_4_loop
	JMP  gemm512_store

gemm512_k32_2:
	GEMM512_B32_FEW
	GEMM512_ROW32((SI), Z26, Z0, Z1)
	GEMM512_ROW32((SI)(R8*1), Z27, Z2, Z3)
	GEMM512_NEXT
	JNE  gemm512_k32_2
	JMP  gemm512_store

gemm512_k32_1:
	GEMM512_B32_FEW
	GEMM512_ROW32((SI), Z26, Z0, Z1)
	GEMM512_NEXT
	JNE  gemm512_k32_1
	JMP  gemm512_store

gemm512_k16:
	CMPQ h-8(SP), $8
	JLT  gemm512_k16_4
	JE   gemm512_k16_8

gemm512_k16_12:
	GEMM512_B16
	GEMM512_ROW16((SI), Z26, Z0)
	GEMM512_ROW16((SI)(R8*1), Z27, Z2)
	GEMM512_ROW16((SI)(R8*2), Z26, Z4)
	GEMM512_ROW16((SI)(R9*1), Z27, Z6)
	GEMM512_ROW16((SI)(R8*4), Z26, Z8)
	GEMM512_ROW16((SI)(R10*1), Z27, Z10)
	GEMM512_ROW16((R15), Z26, Z12)
	GEMM512_ROW16((R15)(R8*1), Z27, Z14)
	GEMM512_ROW16((R15)(R8*2), Z26, Z16)
	GEMM512_ROW16((R15)(R9*1), Z27, Z18)
	GEMM512_ROW16((R15)(R8*4), Z26, Z20)
	GEMM512_ROW16((R15)(R10*1), Z27, Z22)
	GEMM512_NEXT
	JNE  gemm512_k16_12
	JMP  gemm512_store

gemm512_k16_8:
	GEMM512_B16
	GEMM512_ROW16((SI), Z26, Z0)
	GEMM512_ROW16((SI)(R8*1), Z27, Z2)
	GEMM512_ROW16((SI)(R8*2), Z26, Z4)
	GEMM512_ROW16((SI)(R9*1), Z27, Z6)
	GEMM512_ROW16((SI)(R8*4), Z26, Z8)
	GEMM512_ROW16((SI)(R10*1), Z27, Z10)
	GEMM512_ROW16((R15), Z26, Z12)
	GEMM512_ROW16((R15)(R8*1), Z27, Z14)
	GEMM512_NEXT
	JNE  gemm512_k16_8
	JMP  gemm512_store

gemm512_k16_4:
	CMPQ h-8(SP), $2
	JLT  gemm512_k16_1
	JE   gemm512_k16_2

gemm512_k16_4_loop:
	GEMM512_B16
	GEMM512_ROW16((SI), Z26, Z0)
	GEMM512_ROW16((SI)(R8*1), Z27, Z2)
	GEMM512_ROW16((SI)(R8*2), Z26, Z4)
	GEMM512_ROW16((SI)(R9*1), Z27, Z6)
	GEMM512_NEXT
	JNE  gemm512_k16_4_loop
	JMP  gemm512_store

gemm512_k16_2:
	GEMM512_B16
	GEMM512_ROW16((SI), Z26, Z0)
	GEMM512_ROW16((SI)(R8*1), Z27, Z2)
	GEMM512_NEXT
	JNE  gemm512_k16_2
	JMP  gemm512_store

gemm512_k16_1:
	GEMM512_B16
	GEMM512_ROW16((SI), Z26, Z0)
	GEMM512_NEXT
	JNE  gemm512_k16_1

gemm512_store:
	MOVQ DX, DI
	MOVQ h-8(SP), CX
	GEMM512_STORE(Z0, Z1)
	DECQ CX
	JZ   gemm512_stored
	GEMM512_STORE(Z2, Z3)
	DECQ CX
	JZ   gemm512_stored
	GEMM512_STORE(Z4, Z5)
	GEMM512_STORE(Z6, Z7)
	SUBQ $2, CX
	JZ   gemm512_stored
	GEMM512_STORE(Z8, Z9)
	GEMM512_STORE(Z10, Z11)
	GEMM512_STORE(Z12, Z13)
	GEMM512_STORE(Z14, Z15)
	SUBQ $4, CX
	JZ   gemm512_stored
	GEMM512_STORE(Z16, Z17)
	GEMM512_STORE(Z18, Z19)
	GEMM512_STORE(Z20, Z21)
	GEMM512_STORE(Z22, Z23)

gemm512_stored:
	ADDQ $128, AX
	ADDQ $128, DX
	SUBQ $32, R13
	JG   gemm512_tile

	// The next panel: a and c advance h rows.
	MOVQ  h-8(SP), CX
	MOVQ  CX, DI
	IMULQ R8, DI
	ADDQ  DI, a+0(FP)
	MOVQ  CX, DI
	IMULQ R12, DI
	ADDQ  DI, c+40(FP)
	SUBQ  CX, m+56(FP)
	JG    gemm512_panel
	VZEROUPPER
	RET

// EXPNEG16 is simd_avx2_amd64.s's EXPNEG on 16 lanes — the same operations
// in the same order on every lane, so the same bits — with its constants
// held in Z16..Z27 (ATTN512_CONSTS) rather than read from ·expTab, and the
// flush mask in K3. It replaces Z1 = x with eˣ and clobbers Z2..Z8.
#define EXPNEG16 \
	VCMPPS       $5, Z16, Z1, K3 \
	VMOVAPS      Z27, Z2         \
	VFMADD231PS  Z17, Z1, Z2     \
	VSUBPS       Z27, Z2, Z3     \
	VFNMADD231PS Z18, Z3, Z1     \
	VFNMADD231PS Z19, Z3, Z1     \
	VMULPS       Z1, Z1, Z5      \
	VMOVAPS      Z20, Z3         \
	VFMADD213PS  Z21, Z1, Z3     \
	VMOVAPS      Z22, Z6         \
	VFMADD213PS  Z23, Z1, Z6     \
	VMOVAPS      Z24, Z7         \
	VFMADD213PS  Z25, Z1, Z7     \
	VMULPS       Z5, Z5, Z8      \
	VFMADD213PS  Z7, Z5, Z6      \
	VFMADD213PS  Z6, Z8, Z3      \
	VFMADD213PS  Z1, Z5, Z3      \
	VPSLLD       $23, Z2, Z2     \
	VPADDD       Z26, Z2, Z2     \
	VFMADD213PS  Z2, Z2, Z3      \
	VMOVAPS.Z    Z3, K3, Z1

// ATTN512_CONSTS broadcasts ·expTab's twelve constants into Z16..Z27, the
// lane numbers 0..15 into Z31 and 16 into every lane of Z9, and zeros Z10.
#define ATTN512_CONSTS \
	VBROADCASTSS ·expTab+0(SB), Z16   \
	VBROADCASTSS ·expTab+32(SB), Z17  \
	VBROADCASTSS ·expTab+64(SB), Z18  \
	VBROADCASTSS ·expTab+96(SB), Z19  \
	VBROADCASTSS ·expTab+128(SB), Z20 \
	VBROADCASTSS ·expTab+160(SB), Z21 \
	VBROADCASTSS ·expTab+192(SB), Z22 \
	VBROADCASTSS ·expTab+224(SB), Z23 \
	VBROADCASTSS ·expTab+256(SB), Z24 \
	VBROADCASTSS ·expTab+288(SB), Z25 \
	VBROADCASTSS ·expTab+320(SB), Z26 \
	VBROADCASTSS ·expTab+352(SB), Z27 \
	VMOVDQU32    ·laneIndex(SB), Z31  \
	MOVL         $16, R10             \
	VPBROADCASTD R10, Z9              \
	VPXORD       Z10, Z10, Z10

// ATTN512_N sets AX = n_r = min(w, diag + r) for the row index r in CX,
// with R8 = diag and R9 = w, DX = the row's first score (R11 = row 0's)
// and Z29 = n_r in every lane.
#define ATTN512_N \
	LEAQ         (R8)(CX*1), AX \
	CMPQ         AX, R9         \
	CMOVQGT      R9, AX         \
	MOVQ         CX, DX         \
	SHLQ         $8, DX         \
	ADDQ         R11, DX        \
	VPBROADCASTD AX, Z29

// ATTN512_LANES sets Z28 to the lane numbers of the block whose first
// column is in BX, ready for ATTN512_MASKS.
#define ATTN512_LANES \
	VPBROADCASTD BX, Z28 \
	VPADDD       Z31, Z28, Z28

// ATTN512_MASKS sets K4 to the block's lanes the row sees and K5 to those
// below w (Z30 = w), for the block whose lane numbers are in Z28.
#define ATTN512_MASKS \
	VPCMPD $1, Z29, Z28, K4 \
	VPCMPD $1, Z30, Z28, K5

// func attnSoftmaxAVX512(s, m, l, alpha *float32, r0, r1, diag, w int, out *float32, ldo uintptr, d int)
//
// attnSoftmaxAVX2 (simd_avx2_amd64.s) 16 lanes at a time: a block of 16
// adds its two halves to the row's 8 lane chains in turn, so every bit is
// attnSoftmaxAVX2's. A block loads whole, inside the row's 64 floats, and
// stores under a mask nothing past the row's first w.
TEXT ·attnSoftmaxAVX512(SB), NOSPLIT, $0-88
	MOVQ s+0(FP), R11
	MOVQ m+8(FP), SI
	MOVQ alpha+24(FP), R15
	MOVQ diag+48(FP), R8
	MOVQ w+56(FP), R9

	// Alpha for all 32 entries, 16 at a time.
	ATTN512_CONSTS
	VPBROADCASTD R9, Z30
	XORQ CX, CX

fwd_alpha:
	VMOVUPS (R15)(CX*4), Z1
	VMOVUPS (SI)(CX*4), Z12
	VCMPPS  $0, Z12, Z1, K4 // m_old == m_new, ordered
	VSUBPS  Z12, Z1, Z1
	EXPNEG16
	VMOVAPS Z26, K4, Z1
	VMOVUPS Z1, (R15)(CX*4)
	ADDQ    $16, CX
	CMPQ    CX, $32
	JLT     fwd_alpha

	// K6 = the lanes of an out row's last d%16 columns.
	MOVQ         d+80(FP), R10
	ANDQ         $15, R10
	VPBROADCASTD R10, Z11
	VPCMPD       $1, Z11, Z31, K6

	// Per row, the exponentials and their sum, l and out.
	MOVQ r0+32(FP), CX

fwd_row:
	ATTN512_N
	VBROADCASTSS (SI)(CX*4), Z12
	VXORPS Y0, Y0, Y0
	MOVQ   DX, DI
	XORQ   BX, BX // the block's first column

fwd_block:
	// Blocks the row sees whole: no masks.
	LEAQ 16(BX), R10
	CMPQ R10, AX
	JGT  fwd_edge
	VMOVUPS (DI), Z1
	VSUBPS  Z12, Z1, Z1
	EXPNEG16
	VMOVUPS Z1, (DI)
	VADDPS  Y1, Y0, Y0
	VEXTRACTF64X4 $1, Z1, Y2
	VADDPS  Y2, Y0, Y0
	ADDQ    $64, DI
	MOVQ    R10, BX
	CMPQ    BX, R9
	JLT     fwd_block
	JMP     fwd_sum

fwd_edge:
	// The block holding the row's last key, then zeros up to w.
	ATTN512_LANES

fwd_masked:
	ATTN512_MASKS
	CMPQ BX, AX
	JGE  fwd_zero
	VMOVUPS   (DI), Z1
	VSUBPS    Z12, Z1, Z1
	EXPNEG16
	VMOVAPS.Z Z1, K4, Z1
	VMOVUPS   Z1, K5, (DI)
	LEAQ      8(BX), R10
	CMPQ      R10, AX
	JGT       fwd_next_block
	VADDPS    Y1, Y0, Y0
	JMP       fwd_next_block

fwd_zero:
	VMOVUPS Z10, K5, (DI)

fwd_next_block:
	ADDQ   $64, DI
	VPADDD Z9, Z28, Z28
	ADDQ   $16, BX
	CMPQ   BX, R9
	JLT    fwd_masked

fwd_sum:
	VHADDPS      Y0, Y0, Y0
	VHADDPS      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDSS       X1, X0, X0
	MOVQ         AX, R10
	ANDQ         $-8, R10

fwd_tail:
	CMPQ   R10, AX
	JGE    fwd_l
	VADDSS (DX)(R10*4), X0, X0
	INCQ   R10
	JMP    fwd_tail

fwd_l:
	MOVQ         l+16(FP), R12
	VMOVSS       (R12)(CX*4), X1
	VMULSS       (R15)(CX*4), X1, X1
	VADDSS       X0, X1, X1
	VMOVSS       X1, (R12)(CX*4)
	VBROADCASTSS (R15)(CX*4), Z1
	MOVQ         CX, DI
	IMULQ        ldo+72(FP), DI
	ADDQ         out+64(FP), DI
	MOVQ         d+80(FP), BX

fwd_out16:
	CMPQ    BX, $16
	JLT     fwd_out_tail
	VMOVUPS (DI), Z2
	VMULPS  Z1, Z2, Z2
	VMOVUPS Z2, (DI)
	ADDQ    $64, DI
	SUBQ    $16, BX
	JMP     fwd_out16

fwd_out_tail:
	TESTQ     BX, BX
	JZ        fwd_next
	VMOVUPS.Z (DI), K6, Z2
	VMULPS    Z1, Z2, Z2
	VMOVUPS   Z2, K6, (DI)

fwd_next:
	INCQ CX
	CMPQ CX, r1+40(FP)
	JLT  fwd_row
	VZEROUPPER
	RET

// func attnSoftmaxGradAVX512(p, ds, lse, delta *float32, r0, r1, diag, w int, scale float32)
//
// attnSoftmaxGradAVX2 (simd_avx2_amd64.s) 16 lanes at a time, bit for bit.
TEXT ·attnSoftmaxGradAVX512(SB), NOSPLIT, $0-68
	MOVQ p+0(FP), R11
	MOVQ ds+8(FP), R15
	SUBQ R11, R15 // ds − p: a ds element sits R15 bytes past its p
	MOVQ lse+16(FP), SI
	MOVQ delta+24(FP), R13
	MOVQ diag+48(FP), R8
	MOVQ w+56(FP), R9
	ATTN512_CONSTS
	VPBROADCASTD R9, Z30
	VBROADCASTSS scale+64(FP), Z11
	MOVQ r0+32(FP), CX

bwd_row:
	ATTN512_N
	VBROADCASTSS (SI)(CX*4), Z12
	VBROADCASTSS (R13)(CX*4), Z14
	MOVQ DX, DI
	XORQ BX, BX

bwd_block:
	// Blocks the row sees whole: no masks.
	LEAQ 16(BX), R10
	CMPQ R10, AX
	JGT  bwd_edge
	VMOVUPS (DI), Z1
	VSUBPS  Z12, Z1, Z1
	EXPNEG16
	VMOVUPS Z1, (DI)
	VMULPS  Z1, Z11, Z2
	VMOVUPS (DI)(R15*1), Z3
	VSUBPS  Z14, Z3, Z3
	VMULPS  Z3, Z2, Z2
	VMOVUPS Z2, (DI)(R15*1)
	ADDQ    $64, DI
	MOVQ    R10, BX
	CMPQ    BX, R9
	JLT     bwd_block
	JMP     bwd_next_row

bwd_edge:
	// The block holding the row's last key, then zeros up to w.
	ATTN512_LANES

bwd_masked:
	ATTN512_MASKS
	CMPQ BX, AX
	JGE  bwd_zero
	VMOVUPS   (DI), Z1
	VSUBPS    Z12, Z1, Z1
	EXPNEG16
	VMULPS    Z1, Z11, Z2
	VMOVUPS   (DI)(R15*1), Z3
	VSUBPS    Z14, Z3, Z3
	VMULPS    Z3, Z2, Z2
	VMOVAPS.Z Z1, K4, Z1
	VMOVAPS.Z Z2, K4, Z2
	VMOVUPS   Z1, K5, (DI)
	VMOVUPS   Z2, K5, (DI)(R15*1)
	JMP       bwd_next_block

bwd_zero:
	VMOVUPS Z10, K5, (DI)
	VMOVUPS Z10, K5, (DI)(R15*1)

bwd_next_block:
	ADDQ   $64, DI
	VPADDD Z9, Z28, Z28
	ADDQ   $16, BX
	CMPQ   BX, R9
	JLT    bwd_masked

bwd_next_row:
	INCQ   CX
	CMPQ   CX, r1+40(FP)
	JLT    bwd_row
	VZEROUPPER
	RET

// func fmaSpinAVX512(iters int)
//
// fmaSpinAVX2 (simd_avx2_amd64.s) on ZMM registers: 16 lanes per FMA.
TEXT ·fmaSpinAVX512(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	GEMM512_ZERO(Z0, Z1, Z2, Z3)
	GEMM512_ZERO(Z4, Z5, Z6, Z7)
	GEMM512_ZERO(Z8, Z9, Z10, Z11)
	VPXORD Z12, Z12, Z12; VPXORD Z13, Z13, Z13

fmaspin512_loop:
	VFMADD231PS Z12, Z13, Z0; VFMADD231PS Z12, Z13, Z1; VFMADD231PS Z12, Z13, Z2; VFMADD231PS Z12, Z13, Z3
	VFMADD231PS Z12, Z13, Z4; VFMADD231PS Z12, Z13, Z5; VFMADD231PS Z12, Z13, Z6; VFMADD231PS Z12, Z13, Z7
	VFMADD231PS Z12, Z13, Z8; VFMADD231PS Z12, Z13, Z9; VFMADD231PS Z12, Z13, Z10; VFMADD231PS Z12, Z13, Z11
	DECQ CX
	JNE  fmaspin512_loop
	VZEROUPPER
	RET

// RECIPDIV512 is simd_avx2_amd64.s's RECIPDIV on eight float64 lanes — the
// same operations in the same order, so the same bits — with the NaN lanes
// in K1.
#define RECIPDIV512(a, c, y, q, r, q0) \
	VMULPD       y, a, q0   \
	VMOVAPD      a, r       \
	VFMSUB231PD  c, q0, r   \
	VMOVAPD      q0, q      \
	VFNMADD231PD y, r, q    \
	VMOVAPD      a, r       \
	VFMSUB231PD  c, q, r    \
	VFNMADD231PD y, r, q    \
	VCMPPD       $3, q, q, K1 \
	VMOVAPD      q0, K1, q

// func adamWAVX512(w, grad, m, v *float32, n8 int, k *[10]float64)
//
// adamWAVX2 (simd_avx2_amd64.s) on eight float64 lanes per vector, over
// elements [0, 8·n8): the same operations in the same order, so the same
// bits. n8 must be >= 1.
TEXT ·adamWAVX512(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), BX
	MOVQ n8+32(FP), CX
	MOVQ k+40(FP), AX
	VBROADCASTSD 0(AX), Z16
	VBROADCASTSD 8(AX), Z17
	VBROADCASTSD 16(AX), Z18
	VBROADCASTSD 24(AX), Z19
	VBROADCASTSD 32(AX), Z20
	VBROADCASTSD 40(AX), Z21
	VBROADCASTSD 48(AX), Z22
	VBROADCASTSD 56(AX), Z23
	VBROADCASTSD 64(AX), Z24
	VBROADCASTSD 72(AX), Z25

adamw512_loop:
	VCVTPS2PD   (SI), Z0
	VCVTPS2PD   (DX), Z1
	VCVTPS2PD   (BX), Z2
	VMULPD      Z16, Z1, Z1
	VMULPD      Z17, Z0, Z3
	VADDPD      Z1, Z3, Z1
	VMULPD      Z18, Z2, Z2
	VMULPD      Z19, Z0, Z3
	VMULPD      Z0, Z3, Z3
	VADDPD      Z2, Z3, Z2
	VCVTPD2PS   Z1, Y3
	VMOVUPS     Y3, (DX)
	VCVTPD2PS   Z2, Y3
	VMOVUPS     Y3, (BX)
	RECIPDIV512(Z1, Z20, Z24, Z3, Z0, Z4)
	VMULPD      Z22, Z3, Z3
	RECIPDIV512(Z2, Z21, Z25, Z1, Z0, Z4)
	VSQRTPD     Z1, Z1
	VADDPD      Z23, Z1, Z1
	VDIVPD      Z1, Z3, Z3
	VCVTPD2PS   Z3, Y3
	VMOVUPS     (DI), Y0
	VSUBPS      Y3, Y0, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DX
	ADDQ        $32, BX
	ADDQ        $32, DI
	DECQ        CX
	JNE         adamw512_loop
	VZEROUPPER
	RET

// func recipDivAVX512(dst, a *float64, n8 int, k *[2]float64)
//
// recipDivAVX2 on eight lanes: dst[i] = a[i]/C for i in [0, 8·n8) through
// RECIPDIV512. n8 must be >= 1.
TEXT ·recipDivAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n8+16(FP), CX
	MOVQ k+24(FP), AX
	VBROADCASTSD 0(AX), Z16
	VBROADCASTSD 8(AX), Z17

recipdiv512_loop:
	VMOVUPD (SI), Z1
	RECIPDIV512(Z1, Z16, Z17, Z3, Z0, Z4)
	VMOVUPD Z3, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNE     recipdiv512_loop
	VZEROUPPER
	RET

// func crc32AVX512(crc uint32, p []byte) uint32
//
// The IEEE CRC-32 of p from crc, both bit-inverted as in hash/crc32's
// ieeeCLMUL (crc32_amd64.s), which this is with a 512-bit front end. Four
// ZMM accumulators hold the 256 bytes at the cursor, each 128-bit lane a
// running remainder; one iteration folds every lane 256 bytes forward — its
// low qword times x^2080, its high one times x^2016, modulo P — onto the
// next 256 bytes with VPCLMULQDQ and a three-way xor (VPTERNLOGD $0x96).
// After the loop Z1 folds into Z2, Z2 into Z3 and Z3 into Z4, 64 bytes
// forward each (r2r1), and Z4's four lanes become X1–X4: the state
// ieeeCLMUL's loopback64 keeps, from which its 64-byte loop, 16-byte
// remainder and Barrett reduction run unchanged on the bytes left. The
// constants are ·crcFold. len(p) must be at least 256 and a multiple of 16.
TEXT ·crc32AVX512(SB), NOSPLIT, $0-36
	MOVL      crc+0(FP), AX
	VMOVD     AX, X0
	MOVQ      p_base+8(FP), SI
	MOVQ      p_len+16(FP), CX

	VMOVDQU64 (SI), Z1
	VMOVDQU64 64(SI), Z2
	VMOVDQU64 128(SI), Z3
	VMOVDQU64 192(SI), Z4
	VPXORQ    Z0, Z1, Z1
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JB        crc512_fold

	VBROADCASTI32X4 ·crcFold+0(SB), Z0

crc512_loop:
	VPCLMULQDQ $0x00, Z0, Z1, Z5
	VPCLMULQDQ $0x11, Z0, Z1, Z1
	VPCLMULQDQ $0x00, Z0, Z2, Z6
	VPCLMULQDQ $0x11, Z0, Z2, Z2
	VPCLMULQDQ $0x00, Z0, Z3, Z7
	VPCLMULQDQ $0x11, Z0, Z3, Z3
	VPCLMULQDQ $0x00, Z0, Z4, Z8
	VPCLMULQDQ $0x11, Z0, Z4, Z4
	VPTERNLOGD $0x96, (SI), Z5, Z1
	VPTERNLOGD $0x96, 64(SI), Z6, Z2
	VPTERNLOGD $0x96, 128(SI), Z7, Z3
	VPTERNLOGD $0x96, 192(SI), Z8, Z4
	ADDQ       $256, SI
	SUBQ       $256, CX
	CMPQ       CX, $256
	JAE        crc512_loop

crc512_fold:
	VBROADCASTI32X4 ·crcFold+16(SB), Z0
	VPCLMULQDQ      $0x00, Z0, Z1, Z5
	VPCLMULQDQ      $0x11, Z0, Z1, Z1
	VPTERNLOGD      $0x96, Z5, Z1, Z2
	VPCLMULQDQ      $0x00, Z0, Z2, Z5
	VPCLMULQDQ      $0x11, Z0, Z2, Z2
	VPTERNLOGD      $0x96, Z5, Z2, Z3
	VPCLMULQDQ      $0x00, Z0, Z3, Z5
	VPCLMULQDQ      $0x11, Z0, Z3, Z3
	VPTERNLOGD      $0x96, Z5, Z3, Z4
	VEXTRACTI32X4   $1, Z4, X2
	VEXTRACTI32X4   $2, Z4, X3
	VMOVDQU         X4, X1
	VEXTRACTI32X4   $3, Z4, X4
	VZEROUPPER

	// From here on ieeeCLMUL's tail, on the constants' unaligned copies.
	MOVOU ·crcFold+16(SB), X0
	CMPQ  CX, $64
	JB    crc512_remain64

crc512_loopback64:
	MOVOA     X1, X5
	MOVOA     X2, X6
	MOVOA     X3, X7
	MOVOA     X4, X8
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0, X0, X2
	PCLMULQDQ $0, X0, X3
	PCLMULQDQ $0, X0, X4
	MOVOU     (SI), X11
	MOVOU     16(SI), X12
	MOVOU     32(SI), X13
	MOVOU     48(SI), X14
	PCLMULQDQ $0x11, X0, X5
	PCLMULQDQ $0x11, X0, X6
	PCLMULQDQ $0x11, X0, X7
	PCLMULQDQ $0x11, X0, X8
	PXOR      X5, X1
	PXOR      X6, X2
	PXOR      X7, X3
	PXOR      X8, X4
	PXOR      X11, X1
	PXOR      X12, X2
	PXOR      X13, X3
	PXOR      X14, X4
	ADDQ      $64, SI
	SUBQ      $64, CX
	CMPQ      CX, $64
	JGE       crc512_loopback64

crc512_remain64:
	MOVOU     ·crcFold+32(SB), X0
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1
	CMPQ      CX, $16
	JB        crc512_finish

crc512_remain16:
	MOVOU     (SI), X10
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X10, X1
	SUBQ      $16, CX
	ADDQ      $16, SI
	CMPQ      CX, $16
	JGE       crc512_remain16

crc512_finish:
	PCMPEQB   X3, X3
	PCLMULQDQ $1, X1, X0
	PSRLDQ    $8, X1
	PXOR      X0, X1
	MOVOA     X1, X2
	MOVQ      ·crcFold+64(SB), X0
	PSRLQ     $32, X3
	PSRLDQ    $4, X2
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1
	MOVOU     ·crcFold+48(SB), X0
	MOVOA     X1, X2
	PAND      X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1
	PEXTRD    $1, X1, AX
	MOVL      AX, ret+32(FP)
	RET
