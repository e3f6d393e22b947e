"""Opcode and condition-code definitions for BX86.

Every opcode has a fixed operand *format* (see ``OPERAND_FORMATS``) which
drives the table-driven encoder and decoder.  Encodings are byte-exact:
layout optimizations in this reproduction (hot/cold splitting, branch
relaxation, NOP stripping, ``simplify-ro-loads`` size policy) all depend
on real instruction sizes, mirroring the x86_64 properties the BOLT paper
calls out (2-byte short vs 6-byte long conditional branches, 2-byte
``repz ret``, multi-byte alignment NOPs).
"""

import enum


class Op(enum.IntEnum):
    """BX86 opcodes.  The integer value is the primary opcode byte."""

    HALT = 0x00
    NOP = 0x01          # one byte
    NOPN = 0x02         # multi-byte alignment nop: 0x02, len, padding
    OUT = 0x03          # write register to the machine's output stream
    RET = 0x04
    REPZ_RET = 0x05     # 2-byte AMD-friendly return (strip-rep-ret target)
    TRAP = 0x06         # ud2-style trap

    MOV_RR = 0x10
    MOV_RI32 = 0x11     # dst = sign-extended imm32
    MOV_RI64 = 0x12     # dst = imm64 (used for address materialization)
    LEA = 0x13          # dst = base + disp32
    LOAD = 0x14         # dst = mem64[base + disp32]
    STORE = 0x15        # mem64[base + disp32] = src
    LOAD_ABS = 0x16     # dst = mem64[abs32]
    STORE_ABS = 0x17    # mem64[abs32] = src
    LOADIDX = 0x18      # dst = mem64[base + idx*8 + disp32]
    STOREIDX = 0x19     # mem64[base + idx*8 + disp32] = src

    ADD_RR = 0x20
    ADD_RI = 0x21
    SUB_RR = 0x22
    SUB_RI = 0x23
    IMUL_RR = 0x24
    IMUL_RI = 0x25
    AND_RR = 0x26
    AND_RI = 0x27
    OR_RR = 0x28
    OR_RI = 0x29
    XOR_RR = 0x2A
    XOR_RI = 0x2B
    SHL_RI = 0x2C       # shift left by imm8
    SHR_RI = 0x2D       # logical shift right by imm8
    SAR_RI = 0x2E       # arithmetic shift right by imm8
    NEG = 0x2F
    CMP_RR = 0x30
    CMP_RI = 0x31
    TEST_RR = 0x32
    TEST_RI = 0x33
    IDIV_RR = 0x34      # dst = dst / src (truncating, traps on zero)
    IMOD_RR = 0x35      # dst = dst % src (C semantics, traps on zero)
    SHL_RR = 0x36       # dst = dst << (src & 63)
    SHR_RR = 0x37       # logical right shift by register
    SAR_RR = 0x38       # arithmetic right shift by register
    SETCC = 0x39        # dst = flags satisfy cc ? 1 : 0

    PUSH = 0x40
    POP = 0x41

    JMP_SHORT = 0x50    # 2 bytes, rel8
    JMP_NEAR = 0x51     # 5 bytes, rel32
    CALL = 0x52         # 5 bytes, rel32
    CALL_REG = 0x53     # 2 bytes, indirect call through register
    CALL_MEM = 0x54     # 6 bytes, indirect call through mem64[abs32] (GOT)
    JMP_REG = 0x55      # 2 bytes, indirect jump (jump tables / indirect tail calls)
    JMP_MEM = 0x56      # 6 bytes, indirect jump through mem64[abs32] (PLT stubs)

    JCC_SHORT = 0x60    # 2 bytes: opcode byte encodes 0x60 + cc, rel8
    JCC_LONG = 0x70     # 6 bytes: 0x0F prefix, 0x70 + cc, rel32

    #: Prefix byte introducing a two-byte opcode (JCC_LONG only).
    PREFIX_0F = 0x0F


class CondCode(enum.IntEnum):
    """Condition codes for conditional branches (signed and unsigned)."""

    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5
    ULT = 6
    ULE = 7
    UGT = 8
    UGE = 9


_CC_NEGATE = {
    CondCode.EQ: CondCode.NE,
    CondCode.NE: CondCode.EQ,
    CondCode.LT: CondCode.GE,
    CondCode.LE: CondCode.GT,
    CondCode.GT: CondCode.LE,
    CondCode.GE: CondCode.LT,
    CondCode.ULT: CondCode.UGE,
    CondCode.ULE: CondCode.UGT,
    CondCode.UGT: CondCode.ULE,
    CondCode.UGE: CondCode.ULT,
}

_CC_NAMES = {
    CondCode.EQ: "e",
    CondCode.NE: "ne",
    CondCode.LT: "l",
    CondCode.LE: "le",
    CondCode.GT: "g",
    CondCode.GE: "ge",
    CondCode.ULT: "b",
    CondCode.ULE: "be",
    CondCode.UGT: "a",
    CondCode.UGE: "ae",
}


def negate_cc(cc):
    """Return the condition code testing the opposite condition."""
    return _CC_NEGATE[cc]


def cc_name(cc):
    """Return the x86-style suffix for a condition code (e.g. ``"ne"``)."""
    return _CC_NAMES[cc]


# Operand format atoms:
#   "reg"    one register byte
#   "imm8"   one-byte unsigned immediate (shift amounts, NOPN length)
#   "imm32"  4-byte signed immediate
#   "imm64"  8-byte signed immediate
#   "disp32" 4-byte signed displacement (memory operands)
#   "abs32"  4-byte unsigned absolute address
#   "rel8"   1-byte signed pc-relative branch offset (from insn end)
#   "rel32"  4-byte signed pc-relative branch offset (from insn end)
#   "pad"    zero padding byte (reserved encoding space)
OPERAND_FORMATS = {
    Op.HALT: (),
    Op.NOP: (),
    Op.NOPN: ("imm8",),            # total size = imm8 (>= 2)
    Op.OUT: ("reg",),
    Op.RET: (),
    Op.REPZ_RET: ("pad",),
    Op.TRAP: (),
    Op.MOV_RR: ("reg", "reg"),
    Op.MOV_RI32: ("reg", "imm32"),
    Op.MOV_RI64: ("reg", "imm64"),
    Op.LEA: ("reg", "reg", "disp32"),
    Op.LOAD: ("reg", "reg", "disp32"),
    Op.STORE: ("reg", "reg", "disp32"),   # regs = (base, src)
    Op.LOAD_ABS: ("reg", "abs32"),
    Op.STORE_ABS: ("reg", "abs32"),       # regs = (src,)
    Op.LOADIDX: ("reg", "reg", "reg", "disp32"),   # dst, base, idx
    Op.STOREIDX: ("reg", "reg", "reg", "disp32"),  # base, idx, src
    Op.ADD_RR: ("reg", "reg"),
    Op.ADD_RI: ("reg", "imm32"),
    Op.SUB_RR: ("reg", "reg"),
    Op.SUB_RI: ("reg", "imm32"),
    Op.IMUL_RR: ("reg", "reg"),
    Op.IMUL_RI: ("reg", "imm32"),
    Op.AND_RR: ("reg", "reg"),
    Op.AND_RI: ("reg", "imm32"),
    Op.OR_RR: ("reg", "reg"),
    Op.OR_RI: ("reg", "imm32"),
    Op.XOR_RR: ("reg", "reg"),
    Op.XOR_RI: ("reg", "imm32"),
    Op.SHL_RI: ("reg", "imm8"),
    Op.SHR_RI: ("reg", "imm8"),
    Op.SAR_RI: ("reg", "imm8"),
    Op.NEG: ("reg",),
    Op.CMP_RR: ("reg", "reg"),
    Op.CMP_RI: ("reg", "imm32"),
    Op.TEST_RR: ("reg", "reg"),
    Op.TEST_RI: ("reg", "imm32"),
    Op.IDIV_RR: ("reg", "reg"),
    Op.IMOD_RR: ("reg", "reg"),
    Op.SHL_RR: ("reg", "reg"),
    Op.SHR_RR: ("reg", "reg"),
    Op.SAR_RR: ("reg", "reg"),
    Op.SETCC: ("reg", "imm8"),
    Op.PUSH: ("reg",),
    Op.POP: ("reg",),
    Op.JMP_SHORT: ("rel8",),
    Op.JMP_NEAR: ("rel32",),
    Op.CALL: ("rel32",),
    Op.CALL_REG: ("reg",),
    Op.CALL_MEM: ("abs32", "pad"),
    Op.JMP_REG: ("reg",),
    Op.JMP_MEM: ("abs32", "pad"),
    Op.JCC_SHORT: ("rel8",),
    Op.JCC_LONG: ("rel32",),
}

_ATOM_SIZES = {
    "reg": 1,
    "imm8": 1,
    "imm32": 4,
    "imm64": 8,
    "disp32": 4,
    "abs32": 4,
    "rel8": 1,
    "rel32": 4,
    "pad": 1,
}


#: Encoded size per opcode: the opcode byte (plus the 0x0F prefix for
#: JCC_LONG) and its operand atoms.
_FORMAT_SIZES = {
    op: (2 if op == Op.JCC_LONG else 1)
    + sum(_ATOM_SIZES[atom] for atom in atoms)
    for op, atoms in OPERAND_FORMATS.items()
}


def format_size(op):
    """Fixed byte size of an opcode's encoding (NOPN is variable)."""
    return _FORMAT_SIZES[op]


#: Opcodes that read memory (for the D-cache model).
MEM_READ_OPS = frozenset({Op.LOAD, Op.LOAD_ABS, Op.LOADIDX, Op.CALL_MEM, Op.JMP_MEM, Op.POP})

#: Opcodes that write memory.
MEM_WRITE_OPS = frozenset({Op.STORE, Op.STORE_ABS, Op.STOREIDX, Op.PUSH})
