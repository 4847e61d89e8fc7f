"""TPP wire format: header, instruction stream, and packet memory (§3.4).

Layout (all integers big endian)::

    +----------------------+------------------------+---------------------+
    | header (12 bytes)    | instructions (4 B each)| packet memory       |
    +----------------------+------------------------+---------------------+

Header fields::

    byte  0      version (high nibble) | addressing mode (bit 3..2) | word-size code (bits 1..0)
    byte  1      instruction count
    bytes 2-3    packet-memory length in bytes
    byte  4      hop number (incremented by every TPP-capable switch)
    byte  5      stack pointer (byte offset into packet memory)
    byte  6      per-hop memory length in bytes (hop addressing only)
    byte  7      encapsulated protocol code (0 = none, 1 = Ethernet, 2 = IPv4)
    bytes 8-9    checksum over instructions + packet memory
    bytes 10-11  application id

The paper's Figure 7b sketches slightly different field widths (e.g. a 4-byte
application id); we keep the total at 12 bytes because that is the number the
paper's own overhead arithmetic uses (§2.1: 12 B header + 12 B instructions +
6 B/hop × 5 hops = 54 B).  The deviation is recorded in docs/PAPER_MAP.md.

Packet memory is preallocated by the end-host and never grows or shrinks
inside the network (Figure 1a); switches only overwrite words in place and
advance the stack pointer / hop number.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from struct import unpack_from
from typing import Iterable, Optional

from .exceptions import CapacityError, EncodingError
from .isa import INSTRUCTION_BYTES, Instruction, MAX_INSTRUCTIONS, decode_program, encode_program

TPP_HEADER_BYTES = 12
#: Default per-value width on the wire; the paper's examples use 16-bit values.
DEFAULT_WORD_BYTES = 2
#: Maximum packet memory Figure 7b allows (40–200 bytes).
MAX_PACKET_MEMORY_BYTES = 200
#: Conservative MTU bound used when validating TPP size (§3.3).
DEFAULT_MTU = 1500


class AddressingMode(enum.IntEnum):
    """How packet memory is addressed by LOAD/STORE/CSTORE/CEXEC operands."""

    STACK = 0   # PUSH/POP against the stack pointer
    HOP = 1     # base:offset -> hop_number * hop_size + offset * word_size


class EncapProtocol(enum.IntEnum):
    """What the TPP encapsulates (field 7 in the header)."""

    NONE = 0
    ETHERNET = 1
    IPV4 = 2


#: Bound once: an enum member read through its class costs a descriptor call
#: in CPython 3.11+, and the word accessors below test the mode on every word.
_HOP = AddressingMode.HOP

_WORD_CODE = {2: 0, 4: 1}
_CODE_WORD = {0: 2, 1: 4}
#: word size -> its big-endian ``struct`` code (unsigned).
WORD_FORMAT = {2: "H", 4: "I"}
_new = object.__new__


def _header_code(codes: type[enum.IntEnum], code: int, name: str) -> enum.IntEnum:
    """The member of ``codes`` a header field holds; reserved codes are malformed."""
    try:
        return codes(code)
    except ValueError:
        raise EncodingError(f"reserved {name} code {code} in TPP header") from None


def checksum16(data: bytes) -> int:
    """16-bit ones'-complement-style checksum used in the TPP header."""
    total = 0
    padded = data if len(data) % 2 == 0 else data + b"\x00"
    for i in range(0, len(padded), 2):
        total += (padded[i] << 8) | padded[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(frozen=True, eq=False)
class Program:
    """A TPP's frozen program: what every TPP stamped from one template shares.

    Validated once, when the template is built; clones share the object, so
    a TCPU can key its bound plans on the program's identity (``eq=False``
    keeps the identity hash).  ``hop_bytes`` is the packet memory one hop's
    results take: the hop size in hop mode, else one word per
    packet-writing instruction.
    """

    instructions: tuple[Instruction, ...]
    mode: AddressingMode
    word_bytes: int
    hop_size: int
    max_instructions: int = MAX_INSTRUCTIONS
    hop_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        if self.word_bytes not in _WORD_CODE:
            raise EncodingError(f"word size must be 2 or 4 bytes, got {self.word_bytes}")
        if len(self.instructions) > self.max_instructions:
            raise CapacityError(
                f"a TPP may carry at most {self.max_instructions} instructions "
                f"(got {len(self.instructions)}); split the task into multiple TPPs (§3.3)")
        if self.mode is _HOP and self.hop_size <= 0:
            raise EncodingError("hop addressing requires a positive per-hop memory length")
        object.__setattr__(self, "hop_bytes", self.hop_size if self.mode is _HOP else
                           sum(i.writes_packet for i in self.instructions) * self.word_bytes)


class TPP:
    """A tiny packet program: instructions plus scratch packet memory.

    The program — instructions, addressing mode, word size, hop size — is a
    frozen :class:`Program`, read through the properties of the same names;
    packet memory, hop number, stack pointer and the header fields are the
    packet's own.  :meth:`clone` shares the program and copies the rest.
    """

    __slots__ = ("program", "memory", "hop_number", "stack_pointer", "app_id",
                 "encap_proto", "version", "execution_halted")

    def __init__(self, instructions: Iterable[Instruction], memory: bytearray,
                 mode: AddressingMode = AddressingMode.STACK,
                 word_bytes: int = DEFAULT_WORD_BYTES, hop_number: int = 0,
                 stack_pointer: int = 0, hop_size: int = 0, app_id: int = 0,
                 encap_proto: EncapProtocol = EncapProtocol.NONE, version: int = 1,
                 execution_halted: bool = False,
                 max_instructions: int = MAX_INSTRUCTIONS) -> None:
        self.program = Program(tuple(instructions), mode, word_bytes, hop_size,
                               max_instructions)
        self.memory, self.hop_number, self.stack_pointer = memory, hop_number, stack_pointer
        self.app_id, self.encap_proto, self.version = app_id, encap_proto, version
        # Nothing in the package sets it, so it stays False; every fingerprint
        # renders it (session/spec.py::_TPP_FIELDS; ROADMAP 1a's suite half
        # removes it).
        self.execution_halted = execution_halted
        if len(memory) > MAX_PACKET_MEMORY_BYTES:
            raise CapacityError(
                f"packet memory is limited to {MAX_PACKET_MEMORY_BYTES} bytes, "
                f"got {len(memory)}")
        if self.wire_length() > DEFAULT_MTU:
            raise CapacityError("TPP does not fit within one MTU (§3.3)")

    instructions = property(lambda self: self.program.instructions)
    mode = property(lambda self: self.program.mode)
    word_bytes = property(lambda self: self.program.word_bytes)
    hop_size = property(lambda self: self.program.hop_size)
    max_instructions = property(lambda self: self.program.max_instructions)

    def _fields(self) -> tuple:
        program = self.program
        return (program.instructions, self.memory, program.mode, program.word_bytes,
                self.hop_number, self.stack_pointer, program.hop_size, self.app_id,
                self.encap_proto, self.version)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TPP:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------ sizes
    def wire_length(self) -> int:
        """Total bytes this TPP occupies on the wire."""
        return TPP_HEADER_BYTES + INSTRUCTION_BYTES * len(self.instructions) + len(self.memory)

    @property
    def out_of_room(self) -> bool:
        """Has this TPP run out of packet memory for further results?

        The switch-side TCPU reports the per-instruction condition as
        ``InstructionStatus.SKIPPED_PACKET_FULL``; this is the end-host-side
        view of the same situation (§3.3's graceful failure), computable from
        the returned TPP alone: the TPP visited more hops than its packet
        memory holds results for.  Exactly filling the preallocated memory is
        *not* out of room — nothing was lost — and a stack TPP whose pushes
        were skipped for *missing switch memory* (leaving free room) is not
        misreported as truncated.  The test is a heuristic: a full packet
        that kept visiting hops may still over-report when the extra hops
        would have executed nothing (CEXEC-gated or memory-less switches).
        """
        capacity = self.num_hops_capacity
        if capacity <= 0 or self.hop_number <= capacity:
            return False
        if self.mode is AddressingMode.HOP:
            return True
        # Stack mode: room was only ever the limiting factor if the stack
        # actually filled up; skipped pushes leave free space behind.
        return self.stack_pointer + self.word_bytes > len(self.memory)

    @property
    def num_hops_capacity(self) -> int:
        """How many hops' worth of results the packet memory can hold."""
        hop_bytes = self.program.hop_bytes
        return len(self.memory) // hop_bytes if hop_bytes else 0

    # ------------------------------------------------------------ word access
    # Each accessor computes its byte offset and makes its one range check
    # in place; 2-byte words, the common wire format, stay allocation-free.
    def read_hop_word(self, word_offset: int, hop: Optional[int] = None) -> Optional[int]:
        """The word at ``Packet:Hop[word_offset]`` for the given (or current)
        hop; None unless it lies wholly inside packet memory."""
        memory, word_bytes = self.memory, self.word_bytes
        byte_offset = word_offset * word_bytes
        if self.mode is _HOP:
            byte_offset += (self.hop_number if hop is None else hop) * self.hop_size
        if byte_offset < 0 or byte_offset + word_bytes > len(memory):
            return None
        if word_bytes == 2:
            return (memory[byte_offset] << 8) | memory[byte_offset + 1]
        return int.from_bytes(memory[byte_offset:byte_offset + word_bytes], "big")

    def write_hop_word(self, word_offset: int, value: int, hop: Optional[int] = None) -> bool:
        """Write ``value`` (truncated to the word size) at
        ``Packet:Hop[word_offset]`` for the given (or current) hop; False
        (and nothing written) unless the word lies wholly inside."""
        memory, word_bytes = self.memory, self.word_bytes
        byte_offset = word_offset * word_bytes
        if self.mode is _HOP:
            byte_offset += (self.hop_number if hop is None else hop) * self.hop_size
        if byte_offset < 0 or byte_offset + word_bytes > len(memory):
            return False
        if word_bytes == 2:
            memory[byte_offset] = (value >> 8) & 0xFF
            memory[byte_offset + 1] = value & 0xFF
        else:
            memory[byte_offset:byte_offset + word_bytes] = \
                (value & ((1 << (8 * word_bytes)) - 1)).to_bytes(word_bytes, "big")
        return True

    def advance_hop(self) -> None:
        """Increment the hop number (each TPP-capable switch does this once)."""
        self.hop_number += 1

    # ------------------------------------------------------------ extraction
    def pushed_words(self) -> list[int]:
        """All words written via PUSH so far (stack mode), in push order:
        the whole words below the stack pointer that lie in packet memory."""
        memory, word_bytes = self.memory, self.word_bytes
        count = max(min(self.stack_pointer, len(memory)), 0) // word_bytes
        return list(unpack_from(f">{count}{WORD_FORMAT[word_bytes]}", memory))

    def words_by_hop(self, values_per_hop: int) -> list[list[int]]:
        """Group the pushed/loaded words into per-hop records.

        For stack-mode TPPs this slices the pushed words into groups of
        ``values_per_hop``; for hop-mode TPPs it slices packet memory by the
        per-hop memory length; only hops whose ``values_per_hop`` words lie
        inside packet memory are returned.
        """
        if values_per_hop <= 0:
            raise ValueError("values_per_hop must be positive")
        if self.mode is AddressingMode.STACK:
            words = self.pushed_words()
            return [words[i:i + values_per_hop]
                    for i in range(0, len(words), values_per_hop)]
        record = values_per_hop * self.word_bytes
        hops = min(self.hop_number, (len(self.memory) - record) // self.hop_size + 1)
        return [[self.read_hop_word(offset, hop) for offset in range(values_per_hop)]
                for hop in range(max(hops, 0))]

    def all_words(self) -> list[int]:
        """Every word in packet memory, in order."""
        return [int.from_bytes(self.memory[i:i + self.word_bytes], "big")
                for i in range(0, len(self.memory) - self.word_bytes + 1, self.word_bytes)]

    # --------------------------------------------------------------- encoding
    def encode(self) -> bytes:
        """Serialise the TPP (header + instructions + packet memory)."""
        body = encode_program(self.instructions) + bytes(self.memory)
        check = checksum16(body)
        byte0 = ((self.version & 0xF) << 4) | ((int(self.mode) & 0x3) << 2) | _WORD_CODE[self.word_bytes]
        header = bytes((
            byte0,
            len(self.instructions),
            (len(self.memory) >> 8) & 0xFF, len(self.memory) & 0xFF,
            self.hop_number & 0xFF,
            self.stack_pointer & 0xFF,
            self.hop_size & 0xFF,
            int(self.encap_proto) & 0xFF,
            (check >> 8) & 0xFF, check & 0xFF,
            (self.app_id >> 8) & 0xFF, self.app_id & 0xFF,
        ))
        return header + body

    @classmethod
    def decode(cls, data: bytes, verify_checksum: bool = True) -> "TPP":
        """Parse a TPP from bytes produced by :meth:`encode`."""
        if len(data) < TPP_HEADER_BYTES:
            raise EncodingError(f"TPP needs at least {TPP_HEADER_BYTES} header bytes, got {len(data)}")
        byte0 = data[0]
        version = byte0 >> 4
        mode = _header_code(AddressingMode, (byte0 >> 2) & 0x3, "addressing-mode")
        encap = _header_code(EncapProtocol, data[7], "encapsulated-protocol")
        word_bytes = _CODE_WORD.get(byte0 & 0x3)
        if word_bytes is None:
            raise EncodingError(f"unknown word-size code {byte0 & 0x3}")
        n_instr = data[1]
        mem_len = (data[2] << 8) | data[3]
        hop_number = data[4]
        stack_pointer = data[5]
        hop_size = data[6]
        check = (data[8] << 8) | data[9]
        app_id = (data[10] << 8) | data[11]
        body_start = TPP_HEADER_BYTES
        body_end = body_start + n_instr * INSTRUCTION_BYTES + mem_len
        if len(data) < body_end:
            raise EncodingError("TPP truncated: body shorter than the header claims")
        body = data[body_start:body_end]
        if verify_checksum and checksum16(body) != check:
            raise EncodingError("TPP checksum mismatch")
        instructions = decode_program(body[:n_instr * INSTRUCTION_BYTES])
        memory = bytearray(body[n_instr * INSTRUCTION_BYTES:])
        return cls(instructions=instructions, memory=memory, mode=mode,
                   word_bytes=word_bytes, hop_number=hop_number,
                   stack_pointer=stack_pointer, hop_size=hop_size, app_id=app_id,
                   encap_proto=encap, version=version)

    def clone(self) -> "TPP":
        """A copy that shares the frozen program (the shim stamps one per
        packet): packet memory and the per-packet fields are copied, the
        constructor's checks are not re-run, and ``execution_halted`` is
        reset."""
        tpp = _new(TPP)
        tpp.program, tpp.memory = self.program, bytearray(self.memory)
        tpp.hop_number, tpp.stack_pointer = self.hop_number, self.stack_pointer
        tpp.app_id, tpp.encap_proto, tpp.version = self.app_id, self.encap_proto, self.version
        tpp.execution_halted = False
        return tpp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        instrs = "; ".join(str(i) for i in self.instructions)
        return (f"TPP(app={self.app_id}, hop={self.hop_number}, sp={self.stack_pointer}, "
                f"mem={len(self.memory)}B, [{instrs}])")


def make_tpp(instructions: Iterable[Instruction], num_hops: int = 10,
             mode: AddressingMode = AddressingMode.STACK,
             word_bytes: int = DEFAULT_WORD_BYTES, app_id: int = 0,
             values_per_hop: Optional[int] = None,
             initial_values: Optional[Iterable[int]] = None,
             max_instructions: int = MAX_INSTRUCTIONS) -> TPP:
    """Build a TPP with packet memory preallocated for ``num_hops`` hops.

    Args:
        instructions: the program.
        num_hops: how many hops' worth of results to preallocate space for.
        mode: stack or hop addressing.
        word_bytes: 2 or 4 bytes per value on the wire.
        app_id: TPP application id (assigned by the TPP control plane).
        values_per_hop: words written per hop; defaults to the number of
            packet-writing instructions in the program.
        initial_values: optional words to prefill packet memory with (used by
            write-style TPPs such as RCP*'s phase-3 update).
        max_instructions: override of the per-TPP instruction limit.
    """
    instruction_list = list(instructions)
    if values_per_hop is None:
        values_per_hop = max(1, sum(1 for i in instruction_list if i.writes_packet))
    per_hop_bytes = values_per_hop * word_bytes
    memory = bytearray(per_hop_bytes * num_hops)
    if initial_values is not None:
        offset = 0
        mask = (1 << (8 * word_bytes)) - 1
        for value in initial_values:
            if offset + word_bytes > len(memory):
                raise CapacityError("initial values exceed preallocated packet memory")
            memory[offset:offset + word_bytes] = int(value & mask).to_bytes(word_bytes, "big")
            offset += word_bytes
    return TPP(instructions=instruction_list, memory=memory, mode=mode,
               word_bytes=word_bytes, hop_size=per_hop_bytes if mode is AddressingMode.HOP else 0,
               app_id=app_id, max_instructions=max_instructions)
