//go:build !noasm

#include "textflag.h"

// The 16-lane GEMM micro-kernel of the avx512 backend: gemmAVX2's product
// (simd_avx2_amd64.s) on ZMM registers, for whole panels of 12 rows. Every
// output element is the same ascending FMA chain over k in a lane of its
// own, from 0 (store) or from its own c element (accumulate), so the two
// kernels compute the same bits and gemm() may hand each any of the rows.
//
// Register tile: 12 rows × 32 columns in Z0..Z23 (row r in Z(2r), Z(2r+1)),
// the two b vectors of the k step in Z24/Z25, the broadcast a element
// alternating Z26/Z27. Each k step is 2 b loads + 12 broadcasts feeding 24
// FMAs. Columns [0, 16) of a tile load and store under K1, columns [16, 32)
// under K2 — all ones until the last n%32 columns, where the masked lanes
// load zeros and store nothing — and a tile of at most 16 columns runs the
// k loop on the even registers alone. Conventions as in simd_avx2_amd64.s.
//
//	SI  a cursor, rows 0–5    R8  ars     R9  3·ars    R10 5·ars    R11 aks
//	R15 a cursor, rows 6–11   BX  ldb     AX  b tile   DX  c tile   R12 ldc
//	DI  b cursor / c row      CX  k countdown          R13 columns left

#define GEMM512_ZERO(c0, c1, c2, c3) VPXORD c0, c0, c0; VPXORD c1, c1, c1; VPXORD c2, c2, c2; VPXORD c3, c3, c3
#define GEMM512_LOAD(c0, c1) VMOVUPS.Z (DI), K1, c0; VMOVUPS.Z 64(DI), K2, c1; ADDQ R12, DI
#define GEMM512_STORE(c0, c1) VMOVUPS c0, K1, (DI); VMOVUPS c1, K2, 64(DI); ADDQ R12, DI
#define GEMM512_ROW32(a, za, c0, c1) VBROADCASTSS a, za; VFMADD231PS Z24, za, c0; VFMADD231PS Z25, za, c1
#define GEMM512_ROW16(a, za, c0) VBROADCASTSS a, za; VFMADD231PS Z24, za, c0
#define GEMM512_NEXT ADDQ R11, SI; ADDQ R11, R15; ADDQ BX, DI; DECQ CX

// func gemmAVX512(a *float32, ars, aks uintptr, b *float32, ldb uintptr, c *float32, ldc uintptr, m, n, k int, acc bool)
//
// gemmAVX2's contract — strides in bytes, NN passes (row stride, 4) for a,
// TN (4, row stride) — narrowed to what gemm() sends here: m a multiple of
// 12, and m, n and k all >= 1.
TEXT ·gemmAVX512(SB), NOSPLIT, $0-81
	MOVQ ars+8(FP), R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	MOVQ aks+16(FP), R11
	MOVQ ldb+32(FP), BX
	MOVQ ldc+48(FP), R12

gemm512_panel:
	// One panel: 12 rows across all n columns. a, c and m live in their
	// argument slots and advance by a panel below.
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
	GEMM512_LOAD(Z0, Z1)
	GEMM512_LOAD(Z2, Z3)
	GEMM512_LOAD(Z4, Z5)
	GEMM512_LOAD(Z6, Z7)
	GEMM512_LOAD(Z8, Z9)
	GEMM512_LOAD(Z10, Z11)
	GEMM512_LOAD(Z12, Z13)
	GEMM512_LOAD(Z14, Z15)
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

gemm512_k32:
	VMOVUPS.Z (DI), K1, Z24
	VMOVUPS.Z 64(DI), K2, Z25
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
	JNE  gemm512_k32
	JMP  gemm512_store

gemm512_k16:
	VMOVUPS.Z (DI), K1, Z24
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
	JNE  gemm512_k16

gemm512_store:
	MOVQ DX, DI
	GEMM512_STORE(Z0, Z1)
	GEMM512_STORE(Z2, Z3)
	GEMM512_STORE(Z4, Z5)
	GEMM512_STORE(Z6, Z7)
	GEMM512_STORE(Z8, Z9)
	GEMM512_STORE(Z10, Z11)
	GEMM512_STORE(Z12, Z13)
	GEMM512_STORE(Z14, Z15)
	GEMM512_STORE(Z16, Z17)
	GEMM512_STORE(Z18, Z19)
	GEMM512_STORE(Z20, Z21)
	GEMM512_STORE(Z22, Z23)
	ADDQ $128, AX
	ADDQ $128, DX
	SUBQ $32, R13
	JG   gemm512_tile

	// The next 12 rows.
	LEAQ (R9*4), CX
	ADDQ CX, a+0(FP)
	LEAQ (R12)(R12*2), CX
	SHLQ $2, CX
	ADDQ CX, c+40(FP)
	SUBQ $12, m+56(FP)
	JG   gemm512_panel
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

// func adamWAVX512(w, grad, m, v *float32, n8 int, k *[8]float64)
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
	VBROADCASTSD 0(AX), Z8
	VBROADCASTSD 8(AX), Z9
	VBROADCASTSD 16(AX), Z10
	VBROADCASTSD 24(AX), Z11
	VBROADCASTSD 32(AX), Z12
	VBROADCASTSD 40(AX), Z13
	VBROADCASTSD 48(AX), Z14
	VBROADCASTSD 56(AX), Z7

adamw512_loop:
	VCVTPS2PD (SI), Z0
	VCVTPS2PD (DX), Z1
	VCVTPS2PD (BX), Z2
	VMULPD    Z8, Z1, Z1
	VMULPD    Z9, Z0, Z3
	VADDPD    Z3, Z1, Z1
	VMULPD    Z10, Z2, Z2
	VMULPD    Z11, Z0, Z4
	VMULPD    Z0, Z4, Z4
	VADDPD    Z4, Z2, Z2
	VCVTPD2PS Z1, Y5
	VMOVUPS   Y5, (DX)
	VCVTPD2PS Z2, Y6
	VMOVUPS   Y6, (BX)
	VDIVPD    Z12, Z1, Z1
	VDIVPD    Z13, Z2, Z2
	VMULPD    Z14, Z1, Z1
	VSQRTPD   Z2, Z2
	VADDPD    Z7, Z2, Z2
	VDIVPD    Z2, Z1, Z1
	VCVTPD2PS Z1, Y1
	VMOVUPS   (DI), Y3
	VSUBPS    Y1, Y3, Y3
	VMOVUPS   Y3, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, BX
	ADDQ      $32, DI
	DECQ      CX
	JNE       adamw512_loop
	VZEROUPPER
	RET
