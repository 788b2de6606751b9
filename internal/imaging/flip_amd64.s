#include "textflag.h"

// reverse5 is the byte shuffle that reverses the 5 pixels in bytes 1-15 of a
// 16-byte load into bytes 0-14. Byte 15 takes load byte 0, which belongs to
// no pixel of the block.
DATA reverse5<>+0(SB)/8, $0x08070c0b0a0f0e0d
DATA reverse5<>+8(SB)/8, $0x0003020106050409
GLOBL reverse5<>(SB), RODATA|NOPTR, $16

// func flipKernel(dst, src *uint8, blocks int)
//
// Per block: one 16-byte load, one VPSHUFB, one 16-byte store. The loads step
// back 15 bytes and the stores forward 15, so each store's 16th byte is
// rewritten by the next. Only VEX instructions on X registers: the upper
// halves stay clean, and no VZEROUPPER is needed.
TEXT ·flipKernel(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	TESTQ CX, CX
	JZ    done
	VMOVDQU reverse5<>(SB), X15

loop:
	VMOVDQU (SI), X0
	VPSHUFB X15, X0, X0
	VMOVDQU X0, (DI)
	SUBQ    $15, SI
	ADDQ    $15, DI
	DECQ    CX
	JNZ     loop

done:
	RET
