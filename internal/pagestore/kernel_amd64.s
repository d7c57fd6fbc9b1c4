// AES-128-GCM for one page: a 4096-byte plaintext, a 12-byte nonce, 24
// bytes of additional data and a 16-byte tag, on 256-bit VAES and
// VPCLMULQDQ. Each ymm register holds two blocks. A loop iteration runs
// the counter-mode rounds of 16 blocks while GHASH folds in 16 blocks of
// ciphertext: the previous 16 when sealing, the same 16 when opening.
//
// The AES-128 key expansion, the GHASH key setup and the GHASH reduction
// are adapted from the Go standard library
// (crypto/internal/fips140/aes/aes_amd64.s and
// crypto/internal/fips140/aes/gcm/_asm/gcm/gcm_amd64_asm.go), which carry
// this notice:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

#include "textflag.h"

// Layout of pageKey (kernel.go).
#define RK 0   // round keys 0..10, 32 bytes each: the key in both lanes
#define HP 352 // H^16..H^1, 16 bytes each: H^k at HP+16*(16-k)
#define HK 608 // hi^lo of each power, at HK+16*(16-k)

DATA bswapMask<>+0x00(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+0x08(SB)/8, $0x0001020304050607
DATA bswapMask<>+0x10(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+0x18(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $32

DATA gcmPoly<>+0x00(SB)/8, $0x0000000000000001
DATA gcmPoly<>+0x08(SB)/8, $0xc200000000000000
GLOBL gcmPoly<>(SB), RODATA|NOPTR, $16

// ctrOne clears J0's counter field (always 1) in the byte-reflected form;
// ctrStep advances that form's counter by one step of 16 blocks.
DATA ctrOne<>+0x00(SB)/8, $1
DATA ctrOne<>+0x08(SB)/8, $0
DATA ctrOne<>+0x10(SB)/8, $1
DATA ctrOne<>+0x18(SB)/8, $0
GLOBL ctrOne<>(SB), RODATA|NOPTR, $32

DATA ctrStep<>+0x00(SB)/8, $16
DATA ctrStep<>+0x08(SB)/8, $0
DATA ctrStep<>+0x10(SB)/8, $16
DATA ctrStep<>+0x18(SB)/8, $0
GLOBL ctrStep<>(SB), RODATA|NOPTR, $32

// ctrTab holds the low counter bits of a step's 16 blocks, big-endian in
// each lane's last dword: the step that starts at counter 16t encrypts
// counters 16t+2 .. 16t+17, so pairs 0-6 are 2..15 XORed into the step's
// base and pair 7 is 0 and 1 XORed into the next step's base.
DATA ctrTab<>+0x08(SB)/8, $0x0200000000000000
DATA ctrTab<>+0x18(SB)/8, $0x0300000000000000
DATA ctrTab<>+0x28(SB)/8, $0x0400000000000000
DATA ctrTab<>+0x38(SB)/8, $0x0500000000000000
DATA ctrTab<>+0x48(SB)/8, $0x0600000000000000
DATA ctrTab<>+0x58(SB)/8, $0x0700000000000000
DATA ctrTab<>+0x68(SB)/8, $0x0800000000000000
DATA ctrTab<>+0x78(SB)/8, $0x0900000000000000
DATA ctrTab<>+0x88(SB)/8, $0x0a00000000000000
DATA ctrTab<>+0x98(SB)/8, $0x0b00000000000000
DATA ctrTab<>+0xa8(SB)/8, $0x0c00000000000000
DATA ctrTab<>+0xb8(SB)/8, $0x0d00000000000000
DATA ctrTab<>+0xc8(SB)/8, $0x0e00000000000000
DATA ctrTab<>+0xd8(SB)/8, $0x0f00000000000000
DATA ctrTab<>+0xe8(SB)/8, $0x0000000000000000
DATA ctrTab<>+0xf8(SB)/8, $0x0100000000000000
GLOBL ctrTab<>(SB), RODATA|NOPTR, $256

// GHASH's length block for a page, byte-reflected: 4096*8 bits of
// ciphertext and 24*8 bits of additional data.
DATA lenBlock<>+0x00(SB)/8, $0x8000
DATA lenBlock<>+0x08(SB)/8, $0xc0
GLOBL lenBlock<>(SB), RODATA|NOPTR, $16

// EXPAND_KEY derives the next AES-128 round key from X0 into X0 (X4 must
// start zero) and stores it in both lanes of the slot at BX.
#define EXPAND_KEY(rcon) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	SHUFPS          $0x10, X0, X4; \
	PXOR            X4, X0; \
	SHUFPS          $0x8c, X0, X4; \
	PXOR            X4, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, (BX); \
	MOVUPS          X0, 16(BX); \
	ADDQ            $32, BX

#define ENC_ROUND(i) \
	MOVUPS (RK+32*i)(DI), X1; \
	AESENC X1, X0

// func expandPageKey(k *pageKey, key *[16]byte)
TEXT ·expandPageKey(SB), NOSPLIT, $0-16
	MOVQ   k+0(FP), DI
	MOVQ   key+8(FP), AX
	MOVUPS (AX), X0
	MOVUPS X0, (RK+0)(DI)
	MOVUPS X0, (RK+16)(DI)
	LEAQ   (RK+32)(DI), BX
	PXOR   X4, X4
	EXPAND_KEY(0x01)
	EXPAND_KEY(0x02)
	EXPAND_KEY(0x04)
	EXPAND_KEY(0x08)
	EXPAND_KEY(0x10)
	EXPAND_KEY(0x20)
	EXPAND_KEY(0x40)
	EXPAND_KEY(0x80)
	EXPAND_KEY(0x1b)
	EXPAND_KEY(0x36)

	// H = AES_K(0^128).
	MOVUPS (RK+0)(DI), X0
	ENC_ROUND(1)
	ENC_ROUND(2)
	ENC_ROUND(3)
	ENC_ROUND(4)
	ENC_ROUND(5)
	ENC_ROUND(6)
	ENC_ROUND(7)
	ENC_ROUND(8)
	ENC_ROUND(9)
	MOVUPS     (RK+320)(DI), X1
	AESENCLAST X1, X0

	MOVOU  bswapMask<>(SB), X15
	MOVOU  gcmPoly<>(SB), X14
	PSHUFB X15, X0

	// H * 2
	PSHUFD $0xff, X0, X11
	MOVOU  X0, X12
	PSRAL  $31, X11
	PAND   X14, X11
	PSRLL  $31, X12
	PSLLDQ $4, X12
	PSLLL  $1, X0
	PXOR   X11, X0
	PXOR   X12, X0

	// Karatsuba pre-computation
	MOVOU  X0, (HP+240)(DI)
	PSHUFD $78, X0, X1
	PXOR   X0, X1
	MOVOU  X1, (HK+240)(DI)

	// H^2..H^16, each with its Karatsuba pre-computation.
	MOVOU X0, X2
	MOVOU X1, X3
	MOVQ  $15, AX
	LEAQ  (HP+224)(DI), R8

powersLoop:
	MOVOU     X2, X11
	MOVOU     X2, X12
	MOVOU     X3, X13
	PCLMULQDQ $0x00, X0, X11
	PCLMULQDQ $0x11, X0, X12
	PCLMULQDQ $0x00, X1, X13
	PXOR      X11, X13
	PXOR      X12, X13
	MOVOU     X13, X4
	PSLLDQ    $8, X4
	PSRLDQ    $8, X13
	PXOR      X4, X11
	PXOR      X13, X12

	MOVOU     X14, X2
	PCLMULQDQ $0x01, X11, X2
	PSHUFD    $78, X11, X11
	PXOR      X2, X11
	MOVOU     X14, X2
	PCLMULQDQ $0x01, X11, X2
	PSHUFD    $78, X11, X11
	PXOR      X11, X2
	PXOR      X12, X2

	MOVOU  X2, (R8)
	PSHUFD $78, X2, X3
	PXOR   X2, X3
	MOVOU  X3, (HK-HP)(R8)
	LEAQ   -16(R8), R8
	DECQ   AX
	JNE    powersLoop
	RET

// Registers of the page kernels:
//   AX  pageKey          Y0-Y3  counter blocks, then key stream
//   SI  source           Y4     round key
//   DI  destination      Y5-Y7  GHASH partial products (lo, hi, middle)
//   BX  J0               Y8     GHASH input pair
//   CX  additional data  Y9     scratch
//   DX  tag              Y10    next step's base
//   R8  GHASH input      Y11    byte-reflection mask
//   R9  iterations left  Y12    this step's base: counter block 16t XOR
//                               round key 0, in both lanes
//                        Y13    counter 16t, byte-reflected
//                        Y14    GHASH accumulator (low lane; high lane 0)
//                        X15    AES_K(J0)

// GH_LOAD reads the block pair at off(P) in GHASH's byte order into Y8.
#define GH_LOAD(P, off) \
	VMOVDQU off(P), Y8; \
	VPSHUFB Y11, Y8, Y8

// GH_FIRST starts the partial products with Y8 times the power pair in
// slot off; GH_NEXT adds Y8 times the pair in slot off to them.
#define GH_FIRST(off) \
	VPCLMULQDQ $0x00, (HP+off)(AX), Y8, Y5; \
	VPCLMULQDQ $0x11, (HP+off)(AX), Y8, Y6; \
	VPSHUFD    $78, Y8, Y9; \
	VPXOR      Y8, Y9, Y9; \
	VPCLMULQDQ $0x00, (HK+off)(AX), Y9, Y7

#define GH_NEXT(off) \
	VPCLMULQDQ $0x00, (HP+off)(AX), Y8, Y9; \
	VPXOR      Y9, Y5, Y5; \
	VPCLMULQDQ $0x11, (HP+off)(AX), Y8, Y9; \
	VPXOR      Y9, Y6, Y6; \
	VPSHUFD    $78, Y8, Y9; \
	VPXOR      Y8, Y9, Y9; \
	VPCLMULQDQ $0x00, (HK+off)(AX), Y9, Y9; \
	VPXOR      Y9, Y7, Y7

// GH_REDUCE folds the partial products of both lanes into one 256-bit
// product and reduces it modulo the GHASH polynomial into X14.
#define GH_REDUCE \
	VPXOR        Y5, Y7, Y7; \
	VPXOR        Y6, Y7, Y7; \
	VPSLLDQ      $8, Y7, Y9; \
	VPSRLDQ      $8, Y7, Y7; \
	VPXOR        Y9, Y5, Y5; \
	VPXOR        Y7, Y6, Y6; \
	VEXTRACTI128 $1, Y5, X9; \
	VPXOR        X9, X5, X5; \
	VEXTRACTI128 $1, Y6, X9; \
	VPXOR        X9, X6, X6; \
	VPCLMULQDQ   $0x10, gcmPoly<>(SB), X5, X9; \
	VPSHUFD      $78, X5, X5; \
	VPXOR        X9, X5, X5; \
	VPCLMULQDQ   $0x10, gcmPoly<>(SB), X5, X9; \
	VPSHUFD      $78, X5, X5; \
	VPXOR        X9, X5, X5; \
	VPXOR        X6, X5, X14

// GHASH16 folds the 16 blocks at P into X14.
#define GHASH16(P) \
	GH_LOAD(P, 0); \
	VPXOR Y14, Y8, Y8; \
	GH_FIRST(0); \
	GH_LOAD(P, 32); \
	GH_NEXT(32); \
	GH_LOAD(P, 64); \
	GH_NEXT(64); \
	GH_LOAD(P, 96); \
	GH_NEXT(96); \
	GH_LOAD(P, 128); \
	GH_NEXT(128); \
	GH_LOAD(P, 160); \
	GH_NEXT(160); \
	GH_LOAD(P, 192); \
	GH_NEXT(192); \
	GH_LOAD(P, 224); \
	GH_NEXT(224); \
	GH_REDUCE

// A step encrypts 16 blocks in two halves of eight, in Y0-Y3. NEXT_BASE
// computes the next step's base into Y10; CTR_FIRST and CTR_SECOND set a
// half's counter blocks XOR round key 0 (CTR_SECOND then makes Y10 the
// base); AES_ROUND applies round key i; AES_FINISH applies the last round
// and XORs the key stream with the source into the destination, both at
// offset off.
#define NEXT_BASE \
	VPADDD  ctrStep<>(SB), Y13, Y13; \
	VPSHUFB Y11, Y13, Y10; \
	VPXOR   (RK+0)(AX), Y10, Y10

#define CTR_FIRST \
	VPXOR ctrTab<>+0(SB), Y12, Y0; \
	VPXOR ctrTab<>+32(SB), Y12, Y1; \
	VPXOR ctrTab<>+64(SB), Y12, Y2; \
	VPXOR ctrTab<>+96(SB), Y12, Y3

#define CTR_SECOND \
	VPXOR   ctrTab<>+128(SB), Y12, Y0; \
	VPXOR   ctrTab<>+160(SB), Y12, Y1; \
	VPXOR   ctrTab<>+192(SB), Y12, Y2; \
	VPXOR   ctrTab<>+224(SB), Y10, Y3; \
	VMOVDQU Y10, Y12

#define AES_ROUND(i) \
	VMOVDQU (RK+32*i)(AX), Y4; \
	VAESENC Y4, Y0, Y0; \
	VAESENC Y4, Y1, Y1; \
	VAESENC Y4, Y2, Y2; \
	VAESENC Y4, Y3, Y3

#define AES_FINISH(off) \
	VMOVDQU     (RK+320)(AX), Y4; \
	VAESENCLAST Y4, Y0, Y0; \
	VAESENCLAST Y4, Y1, Y1; \
	VAESENCLAST Y4, Y2, Y2; \
	VAESENCLAST Y4, Y3, Y3; \
	VPXOR       (off+0)(SI), Y0, Y0; \
	VPXOR       (off+32)(SI), Y1, Y1; \
	VPXOR       (off+64)(SI), Y2, Y2; \
	VPXOR       (off+96)(SI), Y3, Y3; \
	VMOVDQU     Y0, (off+0)(DI); \
	VMOVDQU     Y1, (off+32)(DI); \
	VMOVDQU     Y2, (off+64)(DI); \
	VMOVDQU     Y3, (off+96)(DI)

#define AES_ROUNDS_5_TO_9 \
	AES_ROUND(5); \
	AES_ROUND(6); \
	AES_ROUND(7); \
	AES_ROUND(8); \
	AES_ROUND(9)

// CTR16 encrypts the 16 blocks at SI into DI.
#define CTR16 \
	NEXT_BASE; \
	CTR_FIRST; \
	AES_ROUND(1); \
	AES_ROUND(2); \
	AES_ROUND(3); \
	AES_ROUND(4); \
	AES_ROUNDS_5_TO_9; \
	AES_FINISH(0); \
	CTR_SECOND; \
	AES_ROUND(1); \
	AES_ROUND(2); \
	AES_ROUND(3); \
	AES_ROUND(4); \
	AES_ROUNDS_5_TO_9; \
	AES_FINISH(128)

// CTR16_GHASH16 is CTR16 with GHASH16(P) threaded through its rounds.
// Every GHASH load of a half precedes that half's stores, so P may be SI
// even when SI and DI are the same buffer.
#define CTR16_GHASH16(P) \
	NEXT_BASE; \
	CTR_FIRST; \
	AES_ROUND(1); \
	GH_LOAD(P, 0); \
	VPXOR Y14, Y8, Y8; \
	GH_FIRST(0); \
	AES_ROUND(2); \
	GH_LOAD(P, 32); \
	GH_NEXT(32); \
	AES_ROUND(3); \
	GH_LOAD(P, 64); \
	GH_NEXT(64); \
	AES_ROUND(4); \
	GH_LOAD(P, 96); \
	GH_NEXT(96); \
	AES_ROUNDS_5_TO_9; \
	AES_FINISH(0); \
	CTR_SECOND; \
	AES_ROUND(1); \
	GH_LOAD(P, 128); \
	GH_NEXT(128); \
	AES_ROUND(2); \
	GH_LOAD(P, 160); \
	GH_NEXT(160); \
	AES_ROUND(3); \
	GH_LOAD(P, 192); \
	GH_NEXT(192); \
	AES_ROUND(4); \
	GH_LOAD(P, 224); \
	GH_NEXT(224); \
	AES_ROUND(5); \
	GH_REDUCE; \
	AES_ROUND(6); \
	AES_ROUND(7); \
	AES_ROUND(8); \
	AES_ROUND(9); \
	AES_FINISH(128)

// SETUP loads the mask, the first step's base and AES_K(J0), and folds
// the additional data, [A1 | A2·0^64] times [H^2 | H^1], into X14.
#define SETUP \
	VMOVDQU        bswapMask<>(SB), Y11; \
	VBROADCASTI128 (BX), Y13; \
	VPSHUFB        Y11, Y13, Y13; \
	VPXOR          ctrOne<>(SB), Y13, Y13; \
	VPSHUFB        Y11, Y13, Y12; \
	VPXOR          (RK+0)(AX), Y12, Y12; \
	VMOVDQU        (BX), X15; \
	VPXOR          (RK+0)(AX), X15, X15; \
	VAESENC        (RK+32)(AX), X15, X15; \
	VAESENC        (RK+64)(AX), X15, X15; \
	VAESENC        (RK+96)(AX), X15, X15; \
	VAESENC        (RK+128)(AX), X15, X15; \
	VAESENC        (RK+160)(AX), X15, X15; \
	VAESENC        (RK+192)(AX), X15, X15; \
	VAESENC        (RK+224)(AX), X15, X15; \
	VAESENC        (RK+256)(AX), X15, X15; \
	VAESENC        (RK+288)(AX), X15, X15; \
	VAESENCLAST    (RK+320)(AX), X15, X15; \
	VMOVDQU        (CX), X8; \
	VMOVQ          16(CX), X9; \
	VINSERTI128    $1, X9, Y8, Y8; \
	VPSHUFB        Y11, Y8, Y8; \
	GH_FIRST(224); \
	GH_REDUCE

// TAG folds the length block into X14, multiplies by H and writes
// AES_K(J0) XOR the result to (DX).
#define TAG \
	VMOVDQU    lenBlock<>(SB), X8; \
	VPXOR      X14, X8, X8; \
	VPCLMULQDQ $0x00, (HP+240)(AX), X8, X5; \
	VPCLMULQDQ $0x11, (HP+240)(AX), X8, X6; \
	VPSHUFD    $78, X8, X9; \
	VPXOR      X8, X9, X9; \
	VPCLMULQDQ $0x00, (HK+240)(AX), X9, X7; \
	VPXOR      X5, X7, X7; \
	VPXOR      X6, X7, X7; \
	VPSLLDQ    $8, X7, X9; \
	VPSRLDQ    $8, X7, X7; \
	VPXOR      X9, X5, X5; \
	VPXOR      X7, X6, X6; \
	VPCLMULQDQ $0x10, gcmPoly<>(SB), X5, X9; \
	VPSHUFD    $78, X5, X5; \
	VPXOR      X9, X5, X5; \
	VPCLMULQDQ $0x10, gcmPoly<>(SB), X5, X9; \
	VPSHUFD    $78, X5, X5; \
	VPXOR      X9, X5, X5; \
	VPXOR      X6, X5, X5; \
	VPSHUFB    X11, X5, X5; \
	VPXOR      X15, X5, X5; \
	VMOVDQU    X5, (DX)

// func sealPage(k *pageKey, dst *[4096]byte, src *[4096]byte, j0 *[16]byte, aad *[24]byte, tag *[16]byte)
TEXT ·sealPage(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ j0+24(FP), BX
	MOVQ aad+32(FP), CX
	MOVQ tag+40(FP), DX
	SETUP

	// GHASH trails the encryption by 16 blocks.
	CTR16
	ADDQ $256, SI
	ADDQ $256, DI
	MOVQ $15, R9

sealLoop:
	LEAQ -256(DI), R8
	CTR16_GHASH16(R8)
	ADDQ $256, SI
	ADDQ $256, DI
	DECQ R9
	JNZ  sealLoop

	LEAQ -256(DI), R8
	GHASH16(R8)
	TAG
	VZEROUPPER
	RET

// func openPage(k *pageKey, dst *[4096]byte, src *[4096]byte, j0 *[16]byte, aad *[24]byte, tag *[16]byte)
TEXT ·openPage(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ j0+24(FP), BX
	MOVQ aad+32(FP), CX
	MOVQ tag+40(FP), DX
	SETUP
	MOVQ $16, R9

openLoop:
	CTR16_GHASH16(SI)
	ADDQ $256, SI
	ADDQ $256, DI
	DECQ R9
	JNZ  openLoop

	TAG
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
