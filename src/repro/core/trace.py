"""Compiled TCPU traces: lowering a TPP program to one specialized function.

The paper's switch executes a TPP's handful of instructions in dedicated
execution units at line rate (§3.5, §6.1); cost is paid once, at tape-out.
Our interpreter pays instead *per packet*: even with the per-program plan
cache of :meth:`repro.core.tcpu.TCPU.execute_program`, every hop still walks
a step list, calls one bound handler per instruction, re-derives packet
byte offsets through :meth:`repro.core.packet_format.TPP.hop_byte_offset`,
and re-checks bounds inside :meth:`~repro.core.packet_format.TPP.read_word_bytes` /
:meth:`~repro.core.packet_format.TPP.write_word_bytes`.

This module removes that per-packet tax the way a tracing JIT would: a
validated program is *lowered once* into a single synthesized Python
function — the program's **trace** — with

* no per-instruction dispatch (the opcode sequence is unrolled into
  straight-line code),
* no operand decoding (addresses, packet offsets, and the word mask are
  baked in as literals),
* no layered bounds re-checks (each instruction carries exactly one inlined
  range test against ``len(tpp.memory)``, instead of three chained method
  calls),
* the administrator's write-disable knob (§4.3) resolved at compile time.

The trace is **behaviour-identical by construction**: each opcode template
below mirrors the corresponding ``TCPU._op_*`` handler line for line — same
status precedence (``SKIPPED_NO_MEMORY`` before ``SKIPPED_PACKET_FULL`` for
reads, the reverse for writes, exactly as the interpreter orders its
checks), same counter updates, same packet-memory truncation.  A
property-style differential sweep (``tests/test_trace.py``) holds the two
engines instruction-for-instruction equal on randomized programs, in the
spirit of the commuter-style cross-checking harnesses.

Eligibility — when we fall back to the interpreter
--------------------------------------------------

Not every program is lowered.  :func:`trace_ineligibility` (built on
:mod:`repro.core.static_analysis`) refuses:

* **conditional programs** (``CSTORE``/``CEXEC``): their halt-the-rest
  control flow would need branchy codegen for a case the reproduced
  workloads stamp rarely; the interpreter remains the reference engine;
* **memory-fault-prone patterns**: programs whose static analysis reports
  packet-memory hazards (write-after-write / read-after-write overlaps,
  §3.5) — precisely the programs where aggressive specialization could
  diverge from sequential semantics, so they stay on the interpreter.

Ineligible programs simply take :meth:`TCPU.execute_program`'s interpreted
path; results are identical either way, only the speed differs.

Assumptions the trace is allowed to make
----------------------------------------

The generated code hoists ``tpp.memory`` (the bytearray object) and the
stack pointer into locals for the whole execution, writing the stack
pointer back once at the end.  A :class:`~repro.core.tcpu.MemoryInterface`
may mutate switch state and the packet *context* freely, and may mutate
the bytearray's contents in place, but must not mutate the TPP itself
(rebind ``tpp.memory``, move ``stack_pointer``/``hop_number``)
mid-execution — no interface in this codebase touches the TPP at all (the
switch-side :class:`~repro.switches.memory.SwitchMemory` only sees the
context), and the sequential instruction semantics themselves are exactly
the interpreter's: failed stack instructions leave the pointer alone,
successful ones advance it by one word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .isa import Instruction, Opcode
from .packet_format import AddressingMode
from .static_analysis import trace_ineligibility
from .tcpu import InstructionStatus

__all__ = ["CompiledTrace", "codegen_stats", "compile_trace", "trace_eligible",
           "trace_ineligibility"]

#: Process-wide codegen memo (templates are few; the bound guards tests that
#: synthesize thousands of unique programs).
_COMPILE_CACHE: dict[tuple, "CompiledTrace"] = {}
_COMPILE_CACHE_LIMIT = 1024

#: Codegen-memo health, process-wide (plain ints; repro.obs reads them as
#: gauges).  Hits mean a program shape was lowered once and reused; misses
#: count actual codegen+exec work, ineligible counts interpreter fallbacks.
_CODEGEN_STATS = {"hits": 0, "misses": 0, "ineligible": 0}


def codegen_stats() -> dict[str, int]:
    """A snapshot of the process-wide codegen memo accounting."""
    return dict(_CODEGEN_STATS)


def trace_eligible(instructions: Sequence[Instruction]) -> bool:
    """True when the program can take the compiled-trace fast path."""
    return trace_ineligibility(instructions) is None


@dataclass(frozen=True)
class CompiledTrace:
    """A lowered program: the synthesized trace factory plus its provenance.

    A trace is bound to one :class:`~repro.core.tcpu.MemoryInterface` before
    it runs: :meth:`bind` resolves every switch-memory address the program
    reads into a per-address reader thunk (via the interface's optional
    ``read_resolver`` — see :meth:`repro.switches.memory.SwitchMemory.read_resolver`)
    and closes the generated function over them, so the per-packet path pays
    neither address decoding nor region dispatch.  The bound function
    ``fn(tcpu, tpp, context)`` is a drop-in for the interpreter's execution
    core: it returns the same statuses list and applies the same
    ``tpps_executed`` / ``instructions_executed`` accounting to the owning
    TCPU.  ``source`` keeps the generated code for inspection and debugging.
    """

    factory: Callable
    source: str
    instructions: tuple[Instruction, ...]

    def bind(self, memory) -> Callable:
        """Close the trace over ``memory``, returning the executable fn.

        Uses the interface's ``read_resolver(address)`` when it offers one
        (an address-specialized reader with identical semantics to
        ``read``); otherwise falls back to per-address ``memory.read``
        closures, which is still correct for any MemoryInterface.
        """
        resolve = getattr(memory, "read_resolver", None)
        if resolve is None:
            read = memory.read

            def resolve(address: int) -> Callable:
                return lambda context, _a=address: read(_a, context)

        return self.factory(memory, resolve)


def compile_trace(instructions: Sequence[Instruction], *, word_bytes: int,
                  mode: AddressingMode, hop_size: int,
                  write_enabled: bool = True) -> Optional[CompiledTrace]:
    """Lower ``instructions`` into a :class:`CompiledTrace`, or None.

    Returns None when the program is ineligible (conditional opcodes or
    packet-memory hazards — see the module docstring); callers fall back to
    the interpreted path.

    The trace is specialized on everything that shapes the generated code:
    the exact instruction sequence, ``word_bytes`` (mask and byte packing),
    the addressing ``mode`` and ``hop_size`` (packet byte-offset
    arithmetic), and ``write_enabled`` (write instructions collapse to a
    constant skip).  Cache keys must therefore cover the same tuple —
    :class:`repro.core.tcpu.TCPU` does.
    """
    program = tuple(instructions)
    # Content-keyed, process-wide memo: every switch TCPU sees the same few
    # templates, so the codegen + exec cost is paid once per program shape,
    # not once per switch.  Content keys (frozen Instructions hash by value)
    # are immune to mutation staleness by construction.
    cache_key = (program, word_bytes, mode, hop_size, write_enabled)
    cached = _COMPILE_CACHE.get(cache_key)
    if cached is not None:
        _CODEGEN_STATS["hits"] += 1
        return cached
    if trace_ineligibility(program) is not None:
        _CODEGEN_STATS["ineligible"] += 1
        return None
    _CODEGEN_STATS["misses"] += 1
    source = _generate_source(program, word_bytes=word_bytes, mode=mode,
                              hop_size=hop_size, write_enabled=write_enabled)
    namespace: dict = {
        "EXECUTED": InstructionStatus.EXECUTED,
        "SKIPPED_NO_MEMORY": InstructionStatus.SKIPPED_NO_MEMORY,
        "SKIPPED_PACKET_FULL": InstructionStatus.SKIPPED_PACKET_FULL,
        "SKIPPED_WRITE_DISABLED": InstructionStatus.SKIPPED_WRITE_DISABLED,
        "_len": len,
        "_from_bytes": int.from_bytes,
    }
    exec(compile(source, "<tpp-trace>", "exec"), namespace)
    compiled = CompiledTrace(factory=namespace["__tpp_trace_factory"], source=source,
                             instructions=program)
    if len(_COMPILE_CACHE) < _COMPILE_CACHE_LIMIT:
        _COMPILE_CACHE[cache_key] = compiled
    return compiled


# --------------------------------------------------------------------- codegen
class _Emitter:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent + line) if line else "")


class _Block:
    def __init__(self, emitter: _Emitter) -> None:
        self.emitter = emitter

    def __enter__(self) -> None:
        self.emitter.indent += 1

    def __exit__(self, *exc) -> None:
        self.emitter.indent -= 1


def _generate_source(program: tuple[Instruction, ...], *, word_bytes: int,
                     mode: AddressingMode, hop_size: int,
                     write_enabled: bool) -> str:
    mask = (1 << (8 * word_bytes)) - 1
    out = _Emitter()
    out.emit("# Synthesized TCPU trace — behaviour-identical to TCPU.execute")
    for index, instruction in enumerate(program):
        out.emit(f"#   {index}: {instruction}")
    writes_switch = any(i.writes_switch for i in program) and write_enabled
    out.emit("def __tpp_trace_factory(memory, resolve,")
    out.emit("                        EXECUTED=EXECUTED,")
    out.emit("                        SKIPPED_NO_MEMORY=SKIPPED_NO_MEMORY,")
    out.emit("                        SKIPPED_PACKET_FULL=SKIPPED_PACKET_FULL,")
    out.emit("                        SKIPPED_WRITE_DISABLED=SKIPPED_WRITE_DISABLED,")
    out.emit("                        _len=_len, _from_bytes=_from_bytes):")
    with _Block(out):
        # Per-address reader thunks, resolved once per (trace, memory) pair.
        for index, instruction in enumerate(program):
            if instruction.reads_switch:
                out.emit(f"r{index} = resolve({instruction.address})")
        if writes_switch:
            out.emit("write = memory.write")
        uses_sp = any(i.opcode is Opcode.PUSH
                      or (i.opcode is Opcode.POP and write_enabled)
                      for i in program)
        out.emit("def __tpp_trace(tcpu, tpp, context):")
        with _Block(out):
            out.emit("mem = tpp.memory")
            out.emit("executed = 0")
            if uses_sp:
                # The stack pointer lives in a local for the whole trace and
                # is written back once — sequential semantics are preserved
                # because only stack instructions move it (failed ones leave
                # it alone, exactly like the interpreter).
                out.emit("sp = tpp.stack_pointer")
            for index, instruction in enumerate(program):
                out.emit(f"# {index}: {instruction}")
                _emit_instruction(out, instruction, index=index,
                                  word_bytes=word_bytes, mask=mask,
                                  mode=mode, hop_size=hop_size,
                                  write_enabled=write_enabled)
            if uses_sp:
                out.emit("tpp.stack_pointer = sp")
            out.emit("tcpu.tpps_executed += 1")
            out.emit("tcpu.instructions_executed += executed")
            status_list = ", ".join(f"s{i}" for i in range(len(program)))
            out.emit(f"return [{status_list}]")
        out.emit("return __tpp_trace")
    return "\n".join(out.lines) + "\n"


def _emit_instruction(out: _Emitter, instruction: Instruction, *, index: int,
                      word_bytes: int, mask: int, mode: AddressingMode,
                      hop_size: int, write_enabled: bool) -> None:
    opcode = instruction.opcode
    if opcode is Opcode.NOP:
        _emit_executed(out, index)
        return
    if opcode is Opcode.PUSH:
        _emit_push(out, index, word_bytes, mask)
        return
    if opcode is Opcode.POP:
        _emit_pop(out, instruction, index, word_bytes, write_enabled)
        return
    if opcode is Opcode.LOAD:
        _emit_load(out, instruction, index, word_bytes, mask, mode, hop_size)
        return
    if opcode is Opcode.STORE:
        _emit_store(out, instruction, index, word_bytes, mode, hop_size,
                    write_enabled)
        return
    raise AssertionError(f"opcode {opcode!r} is not trace-eligible")  # pragma: no cover


def _emit_executed(out: _Emitter, index: int) -> None:
    out.emit(f"s{index} = EXECUTED")
    out.emit("executed += 1")


def _emit_word_read(out: _Emitter, target: str, off: str, word_bytes: int) -> None:
    # Constant offsets need no special form: CPython folds "6 + 2" at
    # compile time, so the generic templates cost nothing at runtime.
    if word_bytes == 2:
        out.emit(f"{target} = (mem[{off}] << 8) | mem[{off} + 1]")
    else:
        out.emit(f"{target} = _from_bytes(mem[{off}:{off} + {word_bytes}], 'big')")


def _emit_word_write(out: _Emitter, off: str, word_bytes: int) -> None:
    """Write local ``v`` (already masked) at byte offset ``off``."""
    if word_bytes == 2:
        out.emit(f"mem[{off}] = v >> 8")
        out.emit(f"mem[{off} + 1] = v & 255")
    else:
        out.emit(f"mem[{off}:{off} + {word_bytes}] = v.to_bytes({word_bytes}, 'big')")


def _hop_offset(instruction: Instruction, word_bytes: int, mode: AddressingMode,
                hop_size: int) -> tuple[Optional[int], str]:
    """(constant byte offset, or None) and the runtime offset expression."""
    base = instruction.packet_offset * word_bytes
    if mode is AddressingMode.HOP:
        return None, f"tpp.hop_number * {hop_size} + {base}"
    return base, str(base)


def _emit_push(out: _Emitter, index: int, word_bytes: int, mask: int) -> None:
    out.emit(f"value = r{index}(context)")
    out.emit("if value is None:")
    with _Block(out):
        out.emit(f"s{index} = SKIPPED_NO_MEMORY")
    out.emit("else:")
    with _Block(out):
        out.emit(f"if 0 <= sp and sp + {word_bytes} <= _len(mem):")
        with _Block(out):
            out.emit(f"v = value & {mask}")
            _emit_word_write(out, "sp", word_bytes)
            out.emit(f"sp += {word_bytes}")
            _emit_executed(out, index)
        out.emit("else:")
        with _Block(out):
            out.emit(f"s{index} = SKIPPED_PACKET_FULL")


def _emit_pop(out: _Emitter, instruction: Instruction, index: int,
              word_bytes: int, write_enabled: bool) -> None:
    if not write_enabled:
        out.emit(f"s{index} = SKIPPED_WRITE_DISABLED")
        return
    out.emit(f"if 0 <= sp and sp + {word_bytes} <= _len(mem):")
    with _Block(out):
        _emit_word_read(out, "value", "sp", word_bytes)
        out.emit(f"sp += {word_bytes}")
        out.emit(f"if write({instruction.address}, value, context):")
        with _Block(out):
            _emit_executed(out, index)
        out.emit("else:")
        with _Block(out):
            out.emit(f"s{index} = SKIPPED_NO_MEMORY")
    out.emit("else:")
    with _Block(out):
        out.emit(f"s{index} = SKIPPED_PACKET_FULL")


def _emit_load(out: _Emitter, instruction: Instruction, index: int,
               word_bytes: int, mask: int, mode: AddressingMode,
               hop_size: int) -> None:
    out.emit(f"value = r{index}(context)")
    out.emit("if value is None:")
    with _Block(out):
        out.emit(f"s{index} = SKIPPED_NO_MEMORY")
    out.emit("else:")
    with _Block(out):
        constant, expr = _hop_offset(instruction, word_bytes, mode, hop_size)
        if constant is None:
            out.emit(f"off = {expr}")
            out.emit(f"if 0 <= off and off + {word_bytes} <= _len(mem):")
            off = "off"
        else:
            out.emit(f"if {constant + word_bytes} <= _len(mem):")
            off = str(constant)
        with _Block(out):
            out.emit(f"v = value & {mask}")
            _emit_word_write(out, off, word_bytes)
            _emit_executed(out, index)
        out.emit("else:")
        with _Block(out):
            out.emit(f"s{index} = SKIPPED_PACKET_FULL")


def _emit_store(out: _Emitter, instruction: Instruction, index: int,
                word_bytes: int, mode: AddressingMode, hop_size: int,
                write_enabled: bool) -> None:
    if not write_enabled:
        out.emit(f"s{index} = SKIPPED_WRITE_DISABLED")
        return
    constant, expr = _hop_offset(instruction, word_bytes, mode, hop_size)
    if constant is None:
        out.emit(f"off = {expr}")
        out.emit(f"if 0 <= off and off + {word_bytes} <= _len(mem):")
        off = "off"
    else:
        out.emit(f"if {constant + word_bytes} <= _len(mem):")
        off = str(constant)
    with _Block(out):
        _emit_word_read(out, "value", off, word_bytes)
        out.emit(f"if write({instruction.address}, value, context):")
        with _Block(out):
            _emit_executed(out, index)
        out.emit("else:")
        with _Block(out):
            out.emit(f"s{index} = SKIPPED_NO_MEMORY")
    out.emit("else:")
    with _Block(out):
        out.emit(f"s{index} = SKIPPED_PACKET_FULL")
