"""Static analysis of TPPs.

The end-host control plane (§4.1) and the hypervisor policy layer (§4.3) never
execute untrusted TPPs directly; they *statically analyse* the at-most-five
instructions to decide whether the program:

* writes to switch memory at all (so write-disabled deployments can reject it),
* stays within the memory segments granted to the requesting application,
* is free of packet-memory hazards that would make the out-of-order,
  per-stage execution of §3.5 diverge from sequential semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import addressing
from .exceptions import AccessControlError
from .isa import Instruction, Opcode


@dataclass(frozen=True)
class MemoryAccess:
    """One switch-memory access performed by an instruction."""

    index: int            # instruction index within the TPP
    opcode: Opcode
    address: int
    is_write: bool


@dataclass
class AnalysisReport:
    """Everything the control plane wants to know about a TPP."""

    accesses: list[MemoryAccess] = field(default_factory=list)
    packet_writes: dict[int, list[int]] = field(default_factory=dict)   # word offset -> instr idx
    packet_reads: dict[int, list[int]] = field(default_factory=dict)
    has_switch_write: bool = False
    has_conditional: bool = False
    hazards: list[str] = field(default_factory=list)

    @property
    def read_addresses(self) -> set[int]:
        return {a.address for a in self.accesses if not a.is_write}

    @property
    def write_addresses(self) -> set[int]:
        return {a.address for a in self.accesses if a.is_write}


def analyze(instructions: Sequence[Instruction]) -> AnalysisReport:
    """Build an :class:`AnalysisReport` for an instruction sequence."""
    report = AnalysisReport()
    stack_offset = 0
    for index, instruction in enumerate(instructions):
        opcode = instruction.opcode
        if opcode is Opcode.NOP:
            continue
        if instruction.is_conditional:
            report.has_conditional = True

        # Switch-memory accesses.
        if instruction.reads_switch:
            report.accesses.append(MemoryAccess(index, opcode, instruction.address, False))
        if instruction.writes_switch:
            report.accesses.append(MemoryAccess(index, opcode, instruction.address, True))
            report.has_switch_write = True

        # Packet-memory accesses (word offsets; PUSH/POP use the running SP).
        if opcode is Opcode.PUSH:
            report.packet_writes.setdefault(stack_offset, []).append(index)
            stack_offset += 1
        elif opcode is Opcode.POP:
            report.packet_reads.setdefault(stack_offset, []).append(index)
            stack_offset += 1
        elif opcode is Opcode.LOAD:
            report.packet_writes.setdefault(instruction.packet_offset, []).append(index)
        elif opcode is Opcode.STORE:
            report.packet_reads.setdefault(instruction.packet_offset, []).append(index)
        elif opcode is Opcode.CSTORE:
            report.packet_reads.setdefault(instruction.packet_offset, []).append(index)
            report.packet_reads.setdefault(instruction.packet_offset + 1, []).append(index)
            report.packet_writes.setdefault(instruction.packet_offset, []).append(index)
        elif opcode is Opcode.CEXEC:
            report.packet_reads.setdefault(instruction.packet_offset, []).append(index)
            report.packet_reads.setdefault(instruction.packet_offset + 1, []).append(index)

    report.hazards = _find_hazards(report)
    return report


def _find_hazards(report: AnalysisReport) -> list[str]:
    """Write-after-write and read-after-write conflicts on packet memory.

    §3.5 allows the switch to reorder instruction execution across stages as
    long as the end-host ensured there are no such conflicts; the analysis
    flags them so the compiler/executor can refuse or split the TPP.
    """
    hazards: list[str] = []
    for offset, writers in report.packet_writes.items():
        if len(writers) > 1:
            hazards.append(
                f"write-after-write on packet word {offset} by instructions {writers}")
        readers = report.packet_reads.get(offset, [])
        late_readers = [r for r in readers if any(r > w for w in writers)]
        # CSTORE reads and writes its own word; that is not a cross-instruction hazard.
        cross = [r for r in late_readers if r not in writers]
        if cross:
            hazards.append(
                f"read-after-write on packet word {offset}: written by {writers}, read by {cross}")
    return hazards


def uses_write_instructions(instructions: Sequence[Instruction]) -> bool:
    """True when any instruction writes switch memory (STORE/POP/CSTORE)."""
    return any(instruction.writes_switch for instruction in instructions)


@dataclass(frozen=True)
class MemoryGrant:
    """An (operation, address range) permission — §4.1's access-control tuple."""

    operation: str          # "read" or "write"
    start: int
    end: int                # inclusive

    def covers(self, address: int) -> bool:
        return self.start <= address <= self.end


def check_access(instructions: Sequence[Instruction], grants: Iterable[MemoryGrant],
                 app_id: int = 0) -> None:
    """Verify every switch-memory access is covered by a grant.

    Raises :class:`AccessControlError` listing each offending access; the
    whole-TPP reject mirrors §4.1 ("the API call returns a failure and the
    TPP is never installed").

    Reads of the standardised read-only statistics (everything outside the
    per-link application-specific scratch registers) are allowed by default —
    the grants restrict *writes* and reads of app-specific state.
    """
    grant_list = list(grants)
    violations: list[str] = []
    for access in analyze(instructions).accesses:
        operation = "write" if access.is_write else "read"
        if not access.is_write and not _is_app_specific(access.address):
            continue
        allowed = any(grant.operation == operation and grant.covers(access.address)
                      for grant in grant_list)
        if not allowed:
            violations.append(
                f"instruction {access.index} ({access.opcode.mnemonic}) {operation}s "
                f"{addressing.describe(access.address)} ({access.address:#06x}) "
                f"outside app {app_id}'s grants")
    if violations:
        raise AccessControlError("; ".join(violations))


def _is_app_specific(address: int) -> bool:
    """True for addresses in per-link/per-stage application scratch registers."""
    decoded = addressing.decode(address)
    if decoded.region in ("link", "dynamic_link"):
        return decoded.field_offset >= addressing.LINK_FIELDS["AppSpecific_0"]
    if decoded.region == "stage":
        return decoded.field_offset >= addressing.STAGE_FIELDS["Reg0"]
    return False
