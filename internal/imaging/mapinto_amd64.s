#include "textflag.h"

// spread moves the 24 bytes of 8 pixels (dwords 0-5 of a 32-byte load) into
// two 12-byte lanes: pixels 0-3 in the low 128 bits, 4-7 in the high.
DATA spread<>+0(SB)/4, $0
DATA spread<>+4(SB)/4, $1
DATA spread<>+8(SB)/4, $2
DATA spread<>+12(SB)/4, $2
DATA spread<>+16(SB)/4, $3
DATA spread<>+20(SB)/4, $4
DATA spread<>+24(SB)/4, $5
DATA spread<>+28(SB)/4, $5
GLOBL spread<>(SB), RODATA|NOPTR, $32

// chanR, chanG and chanB pick byte 3j+c of each lane into dword j,
// zero-extended (a shuffle index with its top bit set writes 0): channel c's
// table index for pixel j of the lane.
DATA chanR<>+0(SB)/4, $0x80808000
DATA chanR<>+4(SB)/4, $0x80808003
DATA chanR<>+8(SB)/4, $0x80808006
DATA chanR<>+12(SB)/4, $0x80808009
DATA chanR<>+16(SB)/4, $0x80808000
DATA chanR<>+20(SB)/4, $0x80808003
DATA chanR<>+24(SB)/4, $0x80808006
DATA chanR<>+28(SB)/4, $0x80808009
GLOBL chanR<>(SB), RODATA|NOPTR, $32

DATA chanG<>+0(SB)/4, $0x80808001
DATA chanG<>+4(SB)/4, $0x80808004
DATA chanG<>+8(SB)/4, $0x80808007
DATA chanG<>+12(SB)/4, $0x8080800a
DATA chanG<>+16(SB)/4, $0x80808001
DATA chanG<>+20(SB)/4, $0x80808004
DATA chanG<>+24(SB)/4, $0x80808007
DATA chanG<>+28(SB)/4, $0x8080800a
GLOBL chanG<>(SB), RODATA|NOPTR, $32

DATA chanB<>+0(SB)/4, $0x80808002
DATA chanB<>+4(SB)/4, $0x80808005
DATA chanB<>+8(SB)/4, $0x80808008
DATA chanB<>+12(SB)/4, $0x8080800b
DATA chanB<>+16(SB)/4, $0x80808002
DATA chanB<>+20(SB)/4, $0x80808005
DATA chanB<>+24(SB)/4, $0x80808008
DATA chanB<>+28(SB)/4, $0x8080800b
GLOBL chanB<>(SB), RODATA|NOPTR, $32

// func mapGather(dstR, dstG, dstB *float32, p *uint8, lut *[3][256]float32, groups int)
//
// Per group of 8 pixels: one 32-byte load of p, spread into two lanes; three
// byte shuffles make each channel's 8 dword indices; three gathers look them
// up in lut[c] (a gather is a plain 4-byte load per element, so the table's
// bits arrive unchanged, NaN payloads included); three 32-byte stores.
TEXT ·mapGather(SB), NOSPLIT, $0-48
	MOVQ dstR+0(FP), DI
	MOVQ dstG+8(FP), R8
	MOVQ dstB+16(FP), R9
	MOVQ p+24(FP), SI
	MOVQ lut+32(FP), AX
	MOVQ groups+40(FP), CX
	LEAQ 1024(AX), BX // lut[1]
	LEAQ 2048(AX), DX // lut[2]
	TESTQ CX, CX
	JZ   done
	VMOVDQU spread<>(SB), Y10
	VMOVDQU chanR<>(SB), Y11
	VMOVDQU chanG<>(SB), Y12
	VMOVDQU chanB<>(SB), Y13

loop:
	VPERMD  (SI), Y10, Y0
	VPSHUFB Y11, Y0, Y1
	VPSHUFB Y12, Y0, Y2
	VPSHUFB Y13, Y0, Y3

	// A gather clears its mask as it completes and keeps the old value of
	// any element whose mask bit is clear: set the mask each time, and zero
	// the destination so no gather waits on the last one's result.
	VPCMPEQD   Y7, Y7, Y7
	VPXOR      Y4, Y4, Y4
	VPGATHERDD Y7, (AX)(Y1*4), Y4
	VPCMPEQD   Y8, Y8, Y8
	VPXOR      Y5, Y5, Y5
	VPGATHERDD Y8, (BX)(Y2*4), Y5
	VPCMPEQD   Y9, Y9, Y9
	VPXOR      Y6, Y6, Y6
	VPGATHERDD Y9, (DX)(Y3*4), Y6

	VMOVDQU Y4, (DI)
	VMOVDQU Y5, (R8)
	VMOVDQU Y6, (R9)

	ADDQ $24, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  loop

	VZEROUPPER

done:
	RET
