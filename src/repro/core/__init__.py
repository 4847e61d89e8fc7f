"""The paper's primary contribution: tiny packet programs.

Public surface:

* :mod:`repro.core.isa` — the instruction set and its 4-byte wire encoding.
* :mod:`repro.core.addressing` — the unified memory map for switch state.
* :mod:`repro.core.assembler` / :mod:`repro.core.compiler` — pseudo-assembly
  front end producing ready-to-send TPPs.
* :mod:`repro.core.packet_format` — the TPP header + packet-memory layout.
* :mod:`repro.core.tcpu` — the execution engine switches embed.
* :mod:`repro.core.static_analysis` — the checks the end-host control plane
  runs before admitting a TPP into the network.
"""

from .addressing import resolve, decode, describe
from .assembler import parse_program, disassemble
from .compiler import CompiledTPP, compile_tpp, collector_tpp, expand_stack_program
from .exceptions import (AccessControlError, AddressError, AssemblyError,
                         CapacityError, EncodingError, ExecutionError, TPPError)
from .isa import Instruction, Opcode, MAX_INSTRUCTIONS
from .packet_format import AddressingMode, TPP, make_tpp
from .static_analysis import MemoryGrant, analyze, check_access, uses_write_instructions
from .tcpu import InstructionStatus, PacketContext, TCPU

__all__ = [
    "AccessControlError", "AddressError", "AddressingMode", "AssemblyError",
    "CapacityError", "CompiledTPP", "EncodingError", "ExecutionError",
    "Instruction", "InstructionStatus", "MAX_INSTRUCTIONS", "MemoryGrant",
    "Opcode", "PacketContext", "TCPU", "TPP", "TPPError",
    "analyze", "check_access", "collector_tpp", "compile_tpp", "decode",
    "describe", "disassemble", "expand_stack_program", "make_tpp",
    "parse_program", "resolve", "uses_write_instructions",
]
