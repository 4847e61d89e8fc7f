"""The TCPU's test oracle: one TPP hop, written from the paper's ISA (§3.3, §4.3).

The product runs every hop as a bound plan (``TCPU.execute_program``).
This module is the other side of every differential in ``test_tcpu.py``
and ``test_plan.py``, and it shares nothing with the product but the
status names and the packet-context fields:

* switch state is touched only through ``MemoryInterface.read`` /
  ``.write``;
* packet memory is read and written here, with ``struct``, at the byte
  offsets §3.4 defines;
* there is no TCPU object: the §4.3 write-disable knob is an argument.

The rules, one per opcode (``w`` is the word size, SP the stack pointer,
``Hop[k]`` the packet word at ``hop_number * hop_size + k * w`` in hop mode,
``k * w`` in stack mode):

* PUSH / LOAD copy a switch word, masked to ``w``, to SP (then ``SP += w``)
  or to ``Hop[k]``. A switch without the address skips the instruction; a
  packet without room for the word skips it too, under its own status.
* POP / STORE copy the word at SP (then ``SP += w``) or at ``Hop[k]`` to
  the switch. They are skipped while writes are disabled, then when the
  packet has no word there, then when the switch refuses the write.
* CSTORE X, [old, new] swaps X from ``old`` to ``new`` and writes X's
  observed value back over ``old``. On a mismatch it fails. With writes
  disabled, a matching CSTORE is skipped; ``old`` already holds the
  observed value.
* CEXEC X, [mask, value] passes iff ``X & mask == value``.
* A CSTORE or CEXEC that fails halts the rest of the hop; either one fails
  outright when X or its two packet words are missing.
"""

import struct
from typing import Optional

from repro.core import addressing
from repro.core.isa import Opcode
from repro.core.packet_format import AddressingMode
from repro.core.tcpu import METADATA_READERS, InstructionStatus, PacketContext

EXECUTED = InstructionStatus.EXECUTED
NO_MEMORY = InstructionStatus.SKIPPED_NO_MEMORY
PACKET_FULL = InstructionStatus.SKIPPED_PACKET_FULL
HALTED = InstructionStatus.SKIPPED_HALTED
WRITE_DISABLED = InstructionStatus.SKIPPED_WRITE_DISABLED
FAILED = InstructionStatus.FAILED_CONDITION

#: word size -> big-endian unsigned ``struct`` format.
_FORMATS = {2: ">H", 4: ">I"}


class DictMemory:
    """A ``MemoryInterface`` backed by a dict, with optional read-only
    addresses; an address outside the dict does not exist."""

    def __init__(self, values=None, read_only=()):
        self.values = dict(values or {})
        self.read_only = set(read_only)

    def read(self, address, context):
        return self.values.get(address)

    def write(self, address, value, context):
        if address in self.read_only or address not in self.values:
            return False
        self.values[address] = value
        return True


def metadata_word(context: PacketContext, field_offset: int) -> Optional[int]:
    """The ``PacketMetadata:`` field at ``field_offset``, None when unmapped."""
    reader = METADATA_READERS.get(field_offset)
    return None if reader is None else reader(context)


class MetadataMemory:
    """A ``MemoryInterface`` over ``PacketMetadata:`` alone, read-only."""

    def read(self, address, context):
        decoded = addressing.decode(address)
        if decoded.region != "packet_metadata":
            return None
        return metadata_word(context, decoded.field_offset)

    def write(self, address, value, context):
        return False


# ------------------------------------------------------------ packet memory
def read_word(tpp, byte_offset: int) -> Optional[int]:
    """The word at ``byte_offset`` of packet memory; None unless it lies
    wholly inside."""
    size = tpp.program.word_bytes
    if byte_offset < 0 or byte_offset + size > len(tpp.memory):
        return None
    return struct.unpack_from(_FORMATS[size], tpp.memory, byte_offset)[0]


def write_word(tpp, byte_offset: int, value: int) -> bool:
    """Write ``value``, truncated to the word size, at ``byte_offset``;
    False (and nothing written) unless the word lies wholly inside."""
    size = tpp.program.word_bytes
    if byte_offset < 0 or byte_offset + size > len(tpp.memory):
        return False
    struct.pack_into(_FORMATS[size], tpp.memory, byte_offset,
                     value & ((1 << 8 * size) - 1))
    return True


def hop_offset(tpp, word_offset: int, hop: Optional[int] = None) -> int:
    """Byte offset of ``Hop[word_offset]`` at ``hop`` (default: the
    current hop); in stack mode the offset is absolute."""
    program = tpp.program
    offset = word_offset * program.word_bytes
    if program.mode is AddressingMode.HOP:
        offset += (tpp.hop_number if hop is None else hop) * program.hop_size
    return offset


def push(tpp, value: int) -> bool:
    """Write ``value`` at SP and advance SP one word; False when full."""
    if not write_word(tpp, tpp.stack_pointer, value):
        return False
    tpp.stack_pointer += tpp.program.word_bytes
    return True


def pop(tpp) -> Optional[int]:
    """The word at SP, advancing SP one word; None when exhausted."""
    value = read_word(tpp, tpp.stack_pointer)
    if value is not None:
        tpp.stack_pointer += tpp.program.word_bytes
    return value


# -------------------------------------------------------------------- a hop
def executed_count(statuses: list) -> int:
    """What one hop adds to ``TCPU.instructions_executed``: the executed
    instructions and the failed condition that halted the rest."""
    return statuses.count(EXECUTED) + (FAILED in statuses)


def execute(tpp, memory, context: PacketContext, write_enabled: bool = True) -> list:
    """Run every instruction of ``tpp`` once against ``memory``: one hop's
    statuses, one per instruction."""
    statuses = []
    for instruction in tpp.program.instructions:
        if FAILED in statuses:
            statuses.append(HALTED)
        else:
            statuses.append(_step(instruction, tpp, memory, context, write_enabled))
    return statuses


def _step(instruction, tpp, memory, context, write_enabled):
    opcode, address = instruction.opcode, instruction.address
    size = tpp.program.word_bytes
    mask = (1 << 8 * size) - 1
    here = hop_offset(tpp, instruction.packet_offset)
    if opcode is Opcode.NOP:
        return EXECUTED

    if opcode in (Opcode.PUSH, Opcode.LOAD):
        value = memory.read(address, context)
        if value is None:
            return NO_MEMORY
        stored = push(tpp, value & mask) if opcode is Opcode.PUSH \
            else write_word(tpp, here, value & mask)
        return EXECUTED if stored else PACKET_FULL

    if opcode in (Opcode.POP, Opcode.STORE):
        if not write_enabled:
            return WRITE_DISABLED
        value = pop(tpp) if opcode is Opcode.POP else read_word(tpp, here)
        if value is None:
            return PACKET_FULL
        return EXECUTED if memory.write(address, value, context) else NO_MEMORY

    observed = memory.read(address, context)
    first, second = read_word(tpp, here), read_word(tpp, here + size)
    if observed is None or first is None or second is None:
        return FAILED
    observed &= mask
    if opcode is Opcode.CEXEC:                      # [mask, value]
        return EXECUTED if observed & first == second else FAILED
    if observed != first:                           # CSTORE [old, new]
        write_word(tpp, here, observed)
        return FAILED
    if not write_enabled:
        return WRITE_DISABLED
    if not memory.write(address, second, context):
        return FAILED
    write_word(tpp, here, second)
    return EXECUTED
