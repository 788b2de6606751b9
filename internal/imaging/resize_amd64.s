#include "textflag.h"

// order puts the dwords VPACKUSWB leaves as bytes 0-3, 8-11, 16-19, 24-27,
// 4-7, 12-15, 20-23, 28-31 back in byte order.
DATA order<>+0(SB)/4, $0
DATA order<>+4(SB)/4, $4
DATA order<>+8(SB)/4, $1
DATA order<>+12(SB)/4, $5
DATA order<>+16(SB)/4, $2
DATA order<>+20(SB)/4, $6
DATA order<>+24(SB)/4, $3
DATA order<>+28(SB)/4, $7
GLOBL order<>(SB), RODATA|NOPTR, $32

// func vertical2Kernel(orow, r0, r1 *uint8, t0, t1 uint64, blocks int)
//
// The taps are below 2^23 (vertical2SWAR's bound), so their low dwords are
// the whole of them. Per 32 bytes: four VPMOVZXBD loads of each source row
// widen 8 bytes to 8 dwords; each dword becomes (2^21 + t0*a + t1*b) >> 22,
// masked to its low byte as the SWAR loop's lanePair mask truncates it; two
// VPACKUSDWs, one VPACKUSWB and one VPERMD pack the 32 dwords back into 32
// bytes in order; one 32-byte store. The prologue touches the vector
// registers with VEX instructions only: a legacy-SSE move here costs a state
// transition per call.
TEXT ·vertical2Kernel(SB), NOSPLIT, $0-48
	MOVQ orow+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ blocks+40(FP), CX
	TESTQ CX, CX
	JZ   done
	VMOVQ        t0+24(FP), X14
	VPBROADCASTD X14, Y14
	VMOVQ        t1+32(FP), X15
	VPBROADCASTD X15, Y15
	MOVL         $0x200000, AX // coeffHalf
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVL         $0xff, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	VMOVDQU      order<>(SB), Y11

loop:
	VPMOVZXBD (SI), Y0
	VPMOVZXBD 8(SI), Y1
	VPMOVZXBD 16(SI), Y2
	VPMOVZXBD 24(SI), Y3
	VPMOVZXBD (DX), Y4
	VPMOVZXBD 8(DX), Y5
	VPMOVZXBD 16(DX), Y6
	VPMOVZXBD 24(DX), Y7

	VPMULLD Y14, Y0, Y0
	VPMULLD Y14, Y1, Y1
	VPMULLD Y14, Y2, Y2
	VPMULLD Y14, Y3, Y3
	VPMULLD Y15, Y4, Y4
	VPMULLD Y15, Y5, Y5
	VPMULLD Y15, Y6, Y6
	VPMULLD Y15, Y7, Y7

	VPADDD Y4, Y0, Y0
	VPADDD Y5, Y1, Y1
	VPADDD Y6, Y2, Y2
	VPADDD Y7, Y3, Y3
	VPADDD Y13, Y0, Y0
	VPADDD Y13, Y1, Y1
	VPADDD Y13, Y2, Y2
	VPADDD Y13, Y3, Y3
	VPSRLD $22, Y0, Y0
	VPSRLD $22, Y1, Y1
	VPSRLD $22, Y2, Y2
	VPSRLD $22, Y3, Y3
	VPAND  Y12, Y0, Y0
	VPAND  Y12, Y1, Y1
	VPAND  Y12, Y2, Y2
	VPAND  Y12, Y3, Y3

	VPACKUSDW Y1, Y0, Y0
	VPACKUSDW Y3, Y2, Y2
	VPACKUSWB Y2, Y0, Y0
	VPERMD    Y0, Y11, Y0
	VMOVDQU   Y0, (DI)

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VZEROUPPER

done:
	RET

// func horizontal2Kernel(orow, row *uint8, off, t0, t1 *int32, blocks int)
//
// Per 32 output bytes: four gathers of 8 dwords, each at a row offset from
// off, whose byte 0 is the sample tap t0 weighs and byte 3 the one t1 does;
// VPAND and VPSRLD $24 split each dword into them; eight VPMULLDs by the taps
// (t0 and t1 are below 2^23, as in vertical2Kernel), and each dword becomes
// (2^21 + t0*a + t1*b) >> 22 masked to its low byte; the pack, permute and
// store are vertical2Kernel's.
TEXT ·horizontal2Kernel(SB), NOSPLIT, $0-48
	MOVQ orow+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ off+16(FP), R8
	MOVQ t0+24(FP), R9
	MOVQ t1+32(FP), R10
	MOVQ blocks+40(FP), CX
	TESTQ CX, CX
	JZ   hdone
	MOVL         $0x200000, AX // coeffHalf
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVL         $0xff, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	VMOVDQU      order<>(SB), Y11

hloop:
	// A gather clears its mask as it completes and keeps the old value of
	// any element whose mask bit is clear: set the mask each time, and zero
	// the destination so no gather waits on the last one's result.
	VMOVDQU    (R8), Y4
	VMOVDQU    32(R8), Y5
	VMOVDQU    64(R8), Y6
	VMOVDQU    96(R8), Y7
	VPCMPEQD   Y8, Y8, Y8
	VPXOR      Y0, Y0, Y0
	VPGATHERDD Y8, (SI)(Y4*1), Y0
	VPCMPEQD   Y9, Y9, Y9
	VPXOR      Y1, Y1, Y1
	VPGATHERDD Y9, (SI)(Y5*1), Y1
	VPCMPEQD   Y10, Y10, Y10
	VPXOR      Y2, Y2, Y2
	VPGATHERDD Y10, (SI)(Y6*1), Y2
	VPCMPEQD   Y14, Y14, Y14
	VPXOR      Y3, Y3, Y3
	VPGATHERDD Y14, (SI)(Y7*1), Y3

	VPSRLD $24, Y0, Y4
	VPSRLD $24, Y1, Y5
	VPSRLD $24, Y2, Y6
	VPSRLD $24, Y3, Y7
	VPAND  Y12, Y0, Y0
	VPAND  Y12, Y1, Y1
	VPAND  Y12, Y2, Y2
	VPAND  Y12, Y3, Y3

	VPMULLD (R9), Y0, Y0
	VPMULLD 32(R9), Y1, Y1
	VPMULLD 64(R9), Y2, Y2
	VPMULLD 96(R9), Y3, Y3
	VPMULLD (R10), Y4, Y4
	VPMULLD 32(R10), Y5, Y5
	VPMULLD 64(R10), Y6, Y6
	VPMULLD 96(R10), Y7, Y7

	VPADDD Y4, Y0, Y0
	VPADDD Y5, Y1, Y1
	VPADDD Y6, Y2, Y2
	VPADDD Y7, Y3, Y3
	VPADDD Y13, Y0, Y0
	VPADDD Y13, Y1, Y1
	VPADDD Y13, Y2, Y2
	VPADDD Y13, Y3, Y3
	VPSRLD $22, Y0, Y0
	VPSRLD $22, Y1, Y1
	VPSRLD $22, Y2, Y2
	VPSRLD $22, Y3, Y3
	VPAND  Y12, Y0, Y0
	VPAND  Y12, Y1, Y1
	VPAND  Y12, Y2, Y2
	VPAND  Y12, Y3, Y3

	VPACKUSDW Y1, Y0, Y0
	VPACKUSDW Y3, Y2, Y2
	VPACKUSWB Y2, Y0, Y0
	VPERMD    Y0, Y11, Y0
	VMOVDQU   Y0, (DI)

	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $32, DI
	DECQ CX
	JNZ  hloop

	VZEROUPPER

hdone:
	RET
