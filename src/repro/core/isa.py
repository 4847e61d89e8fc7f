"""The TPP instruction set (Table 1 of the paper).

Six opcodes are sufficient for every task the paper demonstrates:

=========  ==================================================================
``LOAD``   copy a switch-memory word into packet memory (hop-addressed)
``STORE``  copy a packet-memory word into switch memory (hop-addressed)
``PUSH``   copy a switch-memory word onto packet memory at the stack pointer
``POP``    copy the packet-memory word at the stack pointer into switch memory
``CSTORE`` compare-and-swap on switch memory; failure halts later instructions
``CEXEC``  execute the remaining instructions only if
           ``(switch_value & mask) == value``
=========  ==================================================================

Wire encoding is four bytes per instruction (so the three-instruction TPPs in
§2.1/§2.3 occupy 12 bytes, matching the paper's overhead accounting)::

    byte 0      opcode (high nibble) | flags (low nibble, reserved)
    bytes 1-2   16-bit switch virtual address (big endian)
    byte 3      packet-memory word offset (hop-relative in hop addressing mode)

Multi-operand instructions use *implicit adjacency* in packet memory:

* ``CSTORE [X], [Packet:Hop[k]], [Packet:Hop[k+1]]`` encodes ``k``; the "new"
  value is always read from the following word.
* ``CEXEC [X], [Packet:Hop[k]]`` reads the mask from word ``k`` and the
  comparison value from word ``k+1``.

Execution semantics — what each opcode does at a hop, in what order it can
fail, and how CSTORE/CEXEC gate the rest of the program — live with the
engine in :mod:`repro.core.tcpu` (see its opcode-semantics table).  The
opcode classification sets below (:data:`WRITE_OPCODES`,
:data:`READ_OPCODES`, :data:`PACKET_WRITE_OPCODES`,
:data:`CONDITIONAL_OPCODES`) are what the control plane's static analysis,
the write-disable knob and a template's packet-memory sizing key off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .exceptions import EncodingError

#: The paper restricts a TPP to "at most 5 instructions" so execution always
#: finishes within a fraction of the packet's transmission time (§1, §6).
MAX_INSTRUCTIONS = 5

INSTRUCTION_BYTES = 4


class Opcode(enum.IntEnum):
    """TPP opcodes."""

    NOP = 0
    LOAD = 1
    STORE = 2
    PUSH = 3
    POP = 4
    CSTORE = 5
    CEXEC = 6

    @property
    def mnemonic(self) -> str:
        return self.name


#: Opcodes that write to switch memory; the administrator may disable these
#: network-wide (§4.3) and the end-host control plane polices them per app.
WRITE_OPCODES = frozenset({Opcode.STORE, Opcode.POP, Opcode.CSTORE})

#: Opcodes that read switch memory.
READ_OPCODES = frozenset({Opcode.LOAD, Opcode.PUSH, Opcode.CSTORE, Opcode.CEXEC})

#: Opcodes that write into the packet's own memory.
PACKET_WRITE_OPCODES = frozenset({Opcode.LOAD, Opcode.PUSH, Opcode.CSTORE})

#: Opcodes that gate execution of subsequent instructions.
CONDITIONAL_OPCODES = frozenset({Opcode.CSTORE, Opcode.CEXEC})


@dataclass(frozen=True)
class Instruction:
    """A single decoded TPP instruction.

    Attributes:
        opcode: one of :class:`Opcode`.
        address: 16-bit switch virtual address (ignored for NOP).
        packet_offset: word offset into packet memory.  Interpreted relative
            to the current hop's slice in hop-addressing mode, or as an
            absolute word offset in stack mode.  PUSH/POP ignore it (they use
            the stack pointer from the TPP header).
        flags: reserved low nibble of byte 0 (kept for forward compatibility).
    """

    opcode: Opcode
    address: int = 0
    packet_offset: int = 0
    flags: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.address <= 0xFFFF:
            raise EncodingError(f"switch address {self.address:#x} does not fit in 16 bits")
        if not 0 <= self.packet_offset <= 0xFF:
            raise EncodingError(f"packet offset {self.packet_offset} does not fit in 8 bits")
        if not 0 <= self.flags <= 0xF:
            raise EncodingError(f"flags {self.flags:#x} do not fit in 4 bits")

    # ------------------------------------------------------------ properties
    @property
    def writes_switch(self) -> bool:
        return self.opcode in WRITE_OPCODES

    @property
    def reads_switch(self) -> bool:
        return self.opcode in READ_OPCODES

    @property
    def writes_packet(self) -> bool:
        return self.opcode in PACKET_WRITE_OPCODES

    @property
    def is_conditional(self) -> bool:
        return self.opcode in CONDITIONAL_OPCODES

    # -------------------------------------------------------------- encoding
    def encode(self) -> bytes:
        """Serialise to the 4-byte wire format."""
        byte0 = (int(self.opcode) << 4) | self.flags
        return bytes((byte0, (self.address >> 8) & 0xFF, self.address & 0xFF,
                      self.packet_offset))

    @classmethod
    def decode(cls, data: bytes) -> "Instruction":
        """Parse one instruction from exactly 4 bytes."""
        if len(data) != INSTRUCTION_BYTES:
            raise EncodingError(f"instruction must be {INSTRUCTION_BYTES} bytes, got {len(data)}")
        opcode_value = data[0] >> 4
        try:
            opcode = Opcode(opcode_value)
        except ValueError:
            raise EncodingError(f"unknown opcode {opcode_value}") from None
        return cls(opcode=opcode, address=(data[1] << 8) | data[2],
                   packet_offset=data[3], flags=data[0] & 0xF)

    def __str__(self) -> str:
        from . import addressing
        if self.opcode is Opcode.NOP:
            return "NOP"
        try:
            addr = addressing.describe(self.address)
        except Exception:  # pragma: no cover - malformed addresses in tests
            addr = f"{self.address:#06x}"
        if self.opcode in (Opcode.PUSH, Opcode.POP):
            return f"{self.opcode.mnemonic} {addr}"
        if self.opcode is Opcode.CSTORE:
            return (f"CSTORE {addr}, [Packet:Hop[{self.packet_offset}]], "
                    f"[Packet:Hop[{self.packet_offset + 1}]]")
        if self.opcode is Opcode.CEXEC:
            return f"CEXEC {addr}, [Packet:Hop[{self.packet_offset}]]"
        return f"{self.opcode.mnemonic} {addr}, [Packet:Hop[{self.packet_offset}]]"


def encode_program(instructions: list[Instruction]) -> bytes:
    """Serialise an instruction list to bytes."""
    return b"".join(instr.encode() for instr in instructions)


def decode_program(data: bytes) -> list[Instruction]:
    """Parse a byte string into instructions (length must be a multiple of 4)."""
    if len(data) % INSTRUCTION_BYTES:
        raise EncodingError(
            f"instruction stream length {len(data)} is not a multiple of {INSTRUCTION_BYTES}")
    return [Instruction.decode(data[i:i + INSTRUCTION_BYTES])
            for i in range(0, len(data), INSTRUCTION_BYTES)]
