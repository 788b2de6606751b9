#include "textflag.h"

// SPLAT8 defines a 32-byte table of eight copies of the dword v: a memory
// operand a VEX instruction applies to all eight lanes.
#define SPLAT8(name, v) \
	DATA name<>+0(SB)/4, $v; DATA name<>+4(SB)/4, $v; \
	DATA name<>+8(SB)/4, $v; DATA name<>+12(SB)/4, $v; \
	DATA name<>+16(SB)/4, $v; DATA name<>+20(SB)/4, $v; \
	DATA name<>+24(SB)/4, $v; DATA name<>+28(SB)/4, $v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// The islow butterfly's constants (sjpg.go's fix*), the four it subtracts
// negated, its two rounding terms and storeClamp's bounds.
SPLAT8(k0298, 2446)
SPLAT8(kn0390, -3196)
SPLAT8(k0541, 4433)
SPLAT8(k0765, 6270)
SPLAT8(kn0899, -7373)
SPLAT8(k1175, 9633)
SPLAT8(k1501, 12299)
SPLAT8(k1847, 15137)
SPLAT8(kn1961, -16069)
SPLAT8(k2053, 16819)
SPLAT8(kn2562, -20995)
SPLAT8(k3072, 25172)
SPLAT8(rnd1, 1024)
SPLAT8(rnd2, 131072)
SPLAT8(smax, 1023)
SPLAT8(smin, -1024)

// yccToRGB's constants, fixHalf, the vertical blend's rounding term and the
// luma level shift.
SPLAT8(kcr_r, 91881)
SPLAT8(kcb_g, 22554)
SPLAT8(kcr_g, 46802)
SPLAT8(kcb_b, 116130)
SPLAT8(fixhalf, 32768)
SPLAT8(eight, 8)
SPLAT8(c128, 128)

// TRANSPOSE transposes the 8x8 dwords in r0-r7 (a row each) into t0-t7 (a
// column each), in three steps of 8 instructions: dword and qword unpacks
// within each 128-bit lane, then VPERM2I128 across the lanes. It clobbers
// r0-r7.
#define TRANSPOSE(r0, r1, r2, r3, r4, r5, r6, r7, t0, t1, t2, t3, t4, t5, t6, t7) \
	VPUNPCKLDQ  r1, r0, t0; VPUNPCKHDQ r1, r0, t1; \
	VPUNPCKLDQ  r3, r2, t2; VPUNPCKHDQ r3, r2, t3; \
	VPUNPCKLDQ  r5, r4, t4; VPUNPCKHDQ r5, r4, t5; \
	VPUNPCKLDQ  r7, r6, t6; VPUNPCKHDQ r7, r6, t7; \
	VPUNPCKLQDQ t2, t0, r0; VPUNPCKHQDQ t2, t0, r1; \
	VPUNPCKLQDQ t3, t1, r2; VPUNPCKHQDQ t3, t1, r3; \
	VPUNPCKLQDQ t6, t4, r4; VPUNPCKHQDQ t6, t4, r5; \
	VPUNPCKLQDQ t7, t5, r6; VPUNPCKHQDQ t7, t5, r7; \
	VPERM2I128  $0x20, r4, r0, t0; VPERM2I128 $0x31, r4, r0, t4; \
	VPERM2I128  $0x20, r5, r1, t1; VPERM2I128 $0x31, r5, r1, t5; \
	VPERM2I128  $0x20, r6, r2, t2; VPERM2I128 $0x31, r6, r2, t6; \
	VPERM2I128  $0x20, r7, r3, t3; VPERM2I128 $0x31, r7, r3, t7

// BUTTERFLY is one 1-D pass of idct8x8 on eight lanes at once: i0-i7 hold
// inputs 0-7, o0-o7 receive outputs 0-7, each (x + rnd) >> shift. The
// outputs are the even and odd parts' temporaries until the last step, and
// i0-i7 are clobbered. The rounding term is added to tmp0 and tmp1 of the
// even part, which every output sums in; int32 addition wraps in both
// forms, so where it is added changes no bit.
#define BUTTERFLY(i0, i1, i2, i3, i4, i5, i6, i7, o0, o1, o2, o3, o4, o5, o6, o7, rnd, shift) \
	VPADDD  i6, i2, o0; VPMULLD k0541<>(SB), o0, o0; \
	VPMULLD k1847<>(SB), i6, i6; VPSUBD i6, o0, i6; \
	VPMULLD k0765<>(SB), i2, i2; VPADDD o0, i2, i2; \
	VPSUBD  i4, i0, o0; VPADDD i4, i0, i0; \
	VPSLLD  $13, i0, i0; VPSLLD $13, o0, o0; \
	VPADDD  rnd<>(SB), i0, i0; VPADDD rnd<>(SB), o0, o0; \
	VPADDD  i2, i0, i4; VPSUBD i2, i0, i0; \
	VPADDD  i6, o0, i2; VPSUBD i6, o0, i6; \
	VPADDD  i1, i7, o0; VPADDD i3, i5, o1; \
	VPADDD  i3, i7, o2; VPADDD i1, i5, o3; \
	VPADDD  o3, o2, o4; VPMULLD k1175<>(SB), o4, o4; \
	VPMULLD k0298<>(SB), i7, i7; VPMULLD k2053<>(SB), i5, i5; \
	VPMULLD k3072<>(SB), i3, i3; VPMULLD k1501<>(SB), i1, i1; \
	VPMULLD kn0899<>(SB), o0, o0; VPMULLD kn2562<>(SB), o1, o1; \
	VPMULLD kn1961<>(SB), o2, o2; VPADDD o4, o2, o2; \
	VPMULLD kn0390<>(SB), o3, o3; VPADDD o4, o3, o3; \
	VPADDD  o0, i7, i7; VPADDD o2, i7, i7; \
	VPADDD  o1, i5, i5; VPADDD o3, i5, i5; \
	VPADDD  o1, i3, i3; VPADDD o2, i3, i3; \
	VPADDD  o0, i1, i1; VPADDD o3, i1, i1; \
	VPADDD  i1, i4, o0; VPSUBD i1, i4, o7; \
	VPADDD  i3, i2, o1; VPSUBD i3, i2, o6; \
	VPADDD  i5, i6, o2; VPSUBD i5, i6, o5; \
	VPADDD  i7, i0, o3; VPSUBD i7, i0, o4; \
	VPSRAD  $shift, o0, o0; VPSRAD $shift, o1, o1; \
	VPSRAD  $shift, o2, o2; VPSRAD $shift, o3, o3; \
	VPSRAD  $shift, o4, o4; VPSRAD $shift, o5, o5; \
	VPSRAD  $shift, o6, o6; VPSRAD $shift, o7, o7

// func idctStoreKernel(blk *[64]int32, dst *int32, stride int)
//
// idct8x8 then storeBlock: load the 8 rows, transpose, the row pass on all
// rows at once (round by 2^10, >>11), transpose back, the column pass
// (round by 2^17, >>18), clamp to [-1024, 1023], store 8 rows of 8 at
// stride int32s. It has no DC-only row shortcut: for a row whose AC is zero
// the butterfly gives dc<<2 exactly while |dc| < 2^18 (sjpg.go's
// idctStore). blk is only read.
TEXT ·idctStoreKernel(SB), NOSPLIT, $0-24
	MOVQ blk+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ stride+16(FP), BX
	SHLQ $2, BX

	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4
	VMOVDQU 160(SI), Y5
	VMOVDQU 192(SI), Y6
	VMOVDQU 224(SI), Y7

	TRANSPOSE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	BUTTERFLY(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, rnd1, 11)
	TRANSPOSE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	BUTTERFLY(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, rnd2, 18)

	VMOVDQU smax<>(SB), Y8
	VMOVDQU smin<>(SB), Y9
	VPMINSD Y8, Y0, Y0
	VPMAXSD Y9, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    BX, DI
	VPMINSD Y8, Y1, Y1
	VPMAXSD Y9, Y1, Y1
	VMOVDQU Y1, (DI)
	ADDQ    BX, DI
	VPMINSD Y8, Y2, Y2
	VPMAXSD Y9, Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    BX, DI
	VPMINSD Y8, Y3, Y3
	VPMAXSD Y9, Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    BX, DI
	VPMINSD Y8, Y4, Y4
	VPMAXSD Y9, Y4, Y4
	VMOVDQU Y4, (DI)
	ADDQ    BX, DI
	VPMINSD Y8, Y5, Y5
	VPMAXSD Y9, Y5, Y5
	VMOVDQU Y5, (DI)
	ADDQ    BX, DI
	VPMINSD Y8, Y6, Y6
	VPMAXSD Y9, Y6, Y6
	VMOVDQU Y6, (DI)
	ADDQ    BX, DI
	VPMINSD Y8, Y7, Y7
	VPMAXSD Y9, Y7, Y7
	VMOVDQU Y7, (DI)

	VZEROUPPER
	RET

// interleave3 turns each lane's bytes R0-R3 G0-G3 B0-B3 (what the packs
// leave in bytes 0-11) into R0 G0 B0 ... R3 G3 B3; its last four bytes are
// zero.
DATA interleave3<>+0(SB)/8, $0x0602090501080400
DATA interleave3<>+8(SB)/8, $0x808080800b07030a
DATA interleave3<>+16(SB)/8, $0x0602090501080400
DATA interleave3<>+24(SB)/8, $0x808080800b07030a
GLOBL interleave3<>(SB), RODATA|NOPTR, $32

// compact24 moves the 12 pixel bytes of the high lane (dwords 4-6) down to
// follow the low lane's (dwords 0-2).
DATA compact24<>+0(SB)/4, $0
DATA compact24<>+4(SB)/4, $1
DATA compact24<>+8(SB)/4, $2
DATA compact24<>+12(SB)/4, $4
DATA compact24<>+16(SB)/4, $5
DATA compact24<>+20(SB)/4, $6
DATA compact24<>+24(SB)/4, $3
DATA compact24<>+28(SB)/4, $7
GLOBL compact24<>(SB), RODATA|NOPTR, $32

// func convertRow420Kernel(out *uint8, y, cb0, cb1, cr0, cr1 *int32, fy int32, blocks int)
//
// Per 8 pixels: the vertical blend (gy*c0 + fy*c1 + 8) >> 4 of each chroma
// plane and yccToRGB, all in wrapping int32 lanes as the scalar loop computes
// them (VPMULLD keeps a product's low 32 bits, VPSRAD is Go's signed >>);
// two VPACKSSDWs and one VPACKUSWB, whose signed 16-bit then unsigned 8-bit
// saturation is clampU8 for every int32; one VPSHUFB interleaves each
// lane's 4 pixels, one VPERMD compacts the two lanes' 24 bytes, and one
// 32-byte store writes them and 8 bytes past them, which the next block or
// the caller rewrites.
TEXT ·convertRow420Kernel(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ cb0+16(FP), R8
	MOVQ cb1+24(FP), R9
	MOVQ cr0+32(FP), R10
	MOVQ cr1+40(FP), R11
	MOVQ blocks+56(FP), CX
	TESTQ CX, CX
	JZ   cdone
	MOVL         fy+48(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	NEGL         AX
	ADDL         $4, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VMOVDQU      compact24<>(SB), Y13
	VMOVDQU      fixhalf<>(SB), Y12
	VMOVDQU      eight<>(SB), Y11

cloop:
	VPMULLD (R8), Y15, Y0
	VPMULLD (R9), Y14, Y1
	VPADDD  Y1, Y0, Y0
	VPADDD  Y11, Y0, Y0
	VPSRAD  $4, Y0, Y0 // cb
	VPMULLD (R10), Y15, Y1
	VPMULLD (R11), Y14, Y2
	VPADDD  Y2, Y1, Y1
	VPADDD  Y11, Y1, Y1
	VPSRAD  $4, Y1, Y1 // cr
	VMOVDQU (SI), Y2
	VPADDD  c128<>(SB), Y2, Y2 // luma

	VPMULLD kcr_r<>(SB), Y1, Y3
	VPADDD  Y12, Y3, Y3
	VPSRAD  $16, Y3, Y3
	VPADDD  Y2, Y3, Y3 // r
	VPMULLD kcb_g<>(SB), Y0, Y4
	VPMULLD kcr_g<>(SB), Y1, Y5
	VPADDD  Y5, Y4, Y4
	VPADDD  Y12, Y4, Y4
	VPSRAD  $16, Y4, Y4
	VPSUBD  Y4, Y2, Y4 // g
	VPMULLD kcb_b<>(SB), Y0, Y5
	VPADDD  Y12, Y5, Y5
	VPSRAD  $16, Y5, Y5
	VPADDD  Y2, Y5, Y5 // b

	VPACKSSDW Y4, Y3, Y3
	VPACKSSDW Y5, Y5, Y5
	VPACKUSWB Y5, Y3, Y3
	VPSHUFB   interleave3<>(SB), Y3, Y3
	VPERMD    Y3, Y13, Y3
	VMOVDQU   Y3, (DI)

	ADDQ $24, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  cloop

	VZEROUPPER

cdone:
	RET
