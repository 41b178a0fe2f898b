"""A small RISC-like ISA for the functional-operational engine.

Litmus tests and small kernels compile to this ISA.  It is
deliberately minimal but covers everything the RVWMO litmus families
need: immediates, arithmetic (for address/data dependencies), loads,
stores, atomics, fences, and conditional branches (for control
dependencies).

Register file: integer registers ``r0..rN`` per hardware thread, with
``r0`` hard-wired to zero (RISC-V style).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .config import ConsistencyModel  # noqa: F401  (re-exported for users)
from ..memmodel.events import FenceKind


class Op(enum.Enum):
    """Instruction opcodes."""

    LI = "li"            # rd <- imm
    ADD = "add"          # rd <- rs1 + rs2
    ADDI = "addi"        # rd <- rs1 + imm
    XOR = "xor"          # rd <- rs1 ^ rs2
    LOAD = "load"        # rd <- mem[addr + rs1]
    STORE = "store"      # mem[addr + rs1] <- rs2 (or imm)
    AMOADD = "amoadd"    # rd <- mem[a]; mem[a] <- rd + rs2  (atomic)
    AMOSWAP = "amoswap"  # rd <- mem[a]; mem[a] <- rs2       (atomic)
    FENCE = "fence"
    BEQ = "beq"          # if rs1 == rs2: skip `imm` following instrs
    BNE = "bne"          # if rs1 != rs2: skip `imm` following instrs
    NOP = "nop"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


MEMORY_OPS = frozenset({Op.LOAD, Op.STORE, Op.AMOADD, Op.AMOSWAP})
WRITE_OPS = frozenset({Op.STORE, Op.AMOADD, Op.AMOSWAP})
READ_OPS = frozenset({Op.LOAD, Op.AMOADD, Op.AMOSWAP})
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE})

#: Classes of an in-flight (fetched, not yet executed) instruction, as
#: bits of one mask.  ``Instruction.holds`` is the classes an
#: instruction belongs to; ``Instruction.waits_on`` is the classes of
#: older in-flight instructions that keep it from executing.
IN_FLIGHT = 1     # every instruction
WRITES = 2        # stores and atomics
READS = 4         # loads and atomics
ORDERS_LOADS = 8  # fences that order later loads: full, ll, sl


class Gate:
    """What an instruction checks beyond ``waits_on`` and its source
    registers before it may execute (string constants)."""

    NONE = "none"        # ALU, branch, nop; ss, ls and ll fences
    LOAD = "load"        # PC/SC: no older read; WC: no older aliasing load
    STORE = "store"      # a free store-buffer entry (always under SC)
    DRAINED = "drained"  # atomic, full and sl fences: empty store buffer


#: Fence kind -> (waits_on, extra holds, gate).
_FENCE_GATING = {
    FenceKind.FULL: (IN_FLIGHT, ORDERS_LOADS, Gate.DRAINED),
    FenceKind.STORE_STORE: (WRITES, 0, Gate.NONE),
    FenceKind.LOAD_STORE: (WRITES, 0, Gate.NONE),
    FenceKind.STORE_LOAD: (WRITES, ORDERS_LOADS, Gate.DRAINED),
    FenceKind.LOAD_LOAD: (READS, ORDERS_LOADS, Gate.NONE),
}


def _reg_bit(reg: Optional[int]) -> int:
    return 1 << reg if reg else 0  # r0 is hard-wired: never a dependency


@dataclass(frozen=True)
class Instruction:
    """One instruction.

    ``addr`` holds the static base address for memory ops; ``rs1`` (if
    not None) is added to it at execute time, which is how address
    dependencies are expressed.  For stores, the data comes from
    ``rs2`` when set, else ``imm``.
    """

    op: Op
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    addr: Optional[int] = None
    fence: FenceKind = FenceKind.FULL
    #: Free-form label; litmus postconditions reference result
    #: registers by this (e.g. "r1.0" meaning thread 1's obs 0).
    label: str = ""
    # Decoded once in __post_init__, for the functional engine's gating
    # scan; not compared, hashed or shown.
    is_read: bool = field(init=False, compare=False, repr=False)
    is_write: bool = field(init=False, compare=False, repr=False)
    is_branch: bool = field(init=False, compare=False, repr=False)
    gate: str = field(init=False, compare=False, repr=False)
    holds: int = field(init=False, compare=False, repr=False)
    waits_on: int = field(init=False, compare=False, repr=False)
    #: Register masks: bit ``r`` set for each register read / written.
    src_regs: int = field(init=False, compare=False, repr=False)
    dst_regs: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        op = self.op
        reads, writes = op in READ_OPS, op in WRITE_OPS
        holds = (IN_FLIGHT | (READS if reads else 0)
                 | (WRITES if writes else 0))
        if op is Op.FENCE:
            waits_on, orders, gate = _FENCE_GATING[self.fence]
            holds |= orders
        elif op is Op.LOAD:
            waits_on, gate = WRITES | ORDERS_LOADS, Gate.LOAD
        elif op is Op.STORE:
            waits_on, gate = IN_FLIGHT, Gate.STORE
        elif writes:  # atomics
            waits_on, gate = IN_FLIGHT, Gate.DRAINED
        else:
            waits_on, gate = 0, Gate.NONE
        decoded = {"is_read": reads, "is_write": writes,
                   "is_branch": op in BRANCH_OPS, "gate": gate,
                   "holds": holds, "waits_on": waits_on,
                   "src_regs": _reg_bit(self.rs1) | _reg_bit(self.rs2),
                   "dst_regs": _reg_bit(self.rd)}
        for name, value in decoded.items():
            object.__setattr__(self, name, value)

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS

    @property
    def is_atomic(self) -> bool:
        return self.op in (Op.AMOADD, Op.AMOSWAP)

    @property
    def is_fence(self) -> bool:
        return self.op is Op.FENCE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.op is Op.FENCE:
            return f"fence.{self.fence.value}"
        if self.is_memory:
            base = f"0x{self.addr:x}" if self.addr is not None else "?"
            idx = f"+r{self.rs1}" if self.rs1 is not None else ""
            if self.op is Op.LOAD:
                return f"load r{self.rd}, [{base}{idx}]"
            src = f"r{self.rs2}" if self.rs2 is not None else str(self.imm)
            return f"{self.op.value} [{base}{idx}], {src}"
        return f"{self.op.value} rd={self.rd} rs1={self.rs1} rs2={self.rs2} imm={self.imm}"


# ----------------------------------------------------------------------
# Assembler-style helpers
# ----------------------------------------------------------------------
def li(rd: int, imm: int) -> Instruction:
    return Instruction(Op.LI, rd=rd, imm=imm)


def add(rd: int, rs1: int, rs2: int) -> Instruction:
    return Instruction(Op.ADD, rd=rd, rs1=rs1, rs2=rs2)


def addi(rd: int, rs1: int, imm: int) -> Instruction:
    return Instruction(Op.ADDI, rd=rd, rs1=rs1, imm=imm)


def xor(rd: int, rs1: int, rs2: int) -> Instruction:
    return Instruction(Op.XOR, rd=rd, rs1=rs1, rs2=rs2)


def load(rd: int, addr: int, index_reg: Optional[int] = None,
         label: str = "") -> Instruction:
    return Instruction(Op.LOAD, rd=rd, rs1=index_reg, addr=addr, label=label)


def store(addr: int, value: Optional[int] = None,
          src_reg: Optional[int] = None,
          index_reg: Optional[int] = None) -> Instruction:
    if (value is None) == (src_reg is None):
        raise ValueError("store needs exactly one of value/src_reg")
    return Instruction(Op.STORE, rs1=index_reg, rs2=src_reg,
                       imm=value if value is not None else 0, addr=addr)


def fence(kind: FenceKind = FenceKind.FULL) -> Instruction:
    return Instruction(Op.FENCE, fence=kind)


def amoadd(rd: int, addr: int, src_reg: Optional[int] = None,
           imm: int = 0) -> Instruction:
    return Instruction(Op.AMOADD, rd=rd, rs2=src_reg, imm=imm, addr=addr)


def amoswap(rd: int, addr: int, src_reg: Optional[int] = None,
            imm: int = 0, label: str = "") -> Instruction:
    return Instruction(Op.AMOSWAP, rd=rd, rs2=src_reg, imm=imm, addr=addr,
                       label=label)


def beq(rs1: int, rs2: int, skip: int) -> Instruction:
    return Instruction(Op.BEQ, rs1=rs1, rs2=rs2, imm=skip)


def bne(rs1: int, rs2: int, skip: int) -> Instruction:
    return Instruction(Op.BNE, rs1=rs1, rs2=rs2, imm=skip)


def nop() -> Instruction:
    return Instruction(Op.NOP)
