"""The TCPU: the execution engine for TPP instructions (§3.3, §3.5).

The TCPU is deliberately independent of any concrete switch implementation —
it only talks to a :class:`MemoryInterface`, which resolves 16-bit virtual
addresses against whatever state the switch holds, given the per-packet
:class:`PacketContext`.  This mirrors the paper's split between a logical
TCPU and the per-stage execution units that actually carry out loads and
stores wherever the operand lives.

Semantics implemented here (per §3.2/§3.3):

* reads observe *post-forwarding* values — the switch builds the
  PacketContext only after its forwarding decision, so a TPP reading
  ``[PacketMetadata:OutputPort]`` sees exactly the port the packet leaves on;
* packet-memory writes take effect in TPP order (we execute sequentially);
* instructions that address memory that does not exist on this switch are
  skipped with :attr:`InstructionStatus.SKIPPED_NO_MEMORY` — the TPP "fails
  gracefully" and keeps being forwarded;
* instructions that address memory the *switch* has but the *packet* has run
  out of (a PUSH onto a full stack, a LOAD/STORE past the preallocated
  per-hop slice) are skipped with the distinct
  :attr:`InstructionStatus.SKIPPED_PACKET_FULL`, so end-hosts can tell
  "this switch lacks the statistic" apart from "the packet ran out of room"
  when diagnosing truncated results;
* values read from switch memory are masked to the TPP's word size before
  they touch packet memory, so wraparound of wide statistics (e.g. the
  32-bit microsecond timestamp) is well-defined for both 2- and 4-byte-word
  TPPs;
* a failed ``CSTORE`` or ``CEXEC`` halts all subsequent instructions at this
  hop (and, for CSTORE, writes the observed value back into packet memory so
  the end-host can detect the failure — including when the store half itself
  was suppressed by the administrator's write-disable knob);
* write instructions can be disabled wholesale by the administrator (§4.3).

Opcode semantics at a glance
----------------------------

========  ============================================  =======================
opcode    effect                                        failure modes
========  ============================================  =======================
NOP       nothing                                       —
PUSH      switch word → packet memory at SP; SP += w    ``SKIPPED_NO_MEMORY``
                                                        (address absent),
                                                        ``SKIPPED_PACKET_FULL``
                                                        (stack full)
POP       packet word at SP → switch memory; SP += w    ``SKIPPED_PACKET_FULL``
                                                        (stack exhausted),
                                                        ``SKIPPED_NO_MEMORY``
                                                        (absent/read-only),
                                                        ``SKIPPED_WRITE_DISABLED``
LOAD      switch word → ``Packet:Hop[k]``               like PUSH
STORE     ``Packet:Hop[k]`` → switch memory             like POP
CSTORE    compare-and-swap; observed value written      ``FAILED_CONDITION``
          back to ``Hop[k]``; failure halts the rest    halts later instructions
CEXEC     continue only if ``(switch & mask) == val``   ``FAILED_CONDITION``
                                                        halts later instructions
========  ============================================  =======================

(``w`` is the TPP word size, 2 or 4 bytes; SP is the stack pointer.  Check
precedence matters and is part of the contract: reads report
``SKIPPED_NO_MEMORY`` before looking at packet room, writes report
``SKIPPED_PACKET_FULL`` before attempting the switch write.)

Execution hot path
------------------

Three engines, one semantics:

1. :meth:`TCPU.execute` — the reference interpreter: resolves each opcode
   through the handler table and runs the uncached step list.  One-off
   programs and tests use it, and it is the other side of every
   differential.
2. :meth:`TCPU.execute_program` — the **bound plan**: each instruction of a
   program becomes one closure ``step(tpp, context) -> InstructionStatus``,
   built once per ``(program, id(memory))`` — the TPP's frozen
   :class:`~repro.core.packet_format.Program`, which every clone of a
   template shares, and the memory it runs against.  A step is bound to
   its memory row (the memory's ``read_resolver`` / ``write_resolver``
   closure for the address, or a closure over ``read`` / ``write`` for a
   memory without resolvers), its packet byte offset (``packet_offset *
   word_bytes``, plus ``hop_number * hop_size`` in hop mode), the word mask
   and the write-enable knob.  A hop runs the steps in order and stops at
   the first ``FAILED_CONDITION`` (CEXEC and CSTORE are ordinary steps), so
   every program is eligible.  The hop returns its statuses list: it halted iff
   ``FAILED_CONDITION`` is in it, so an :class:`ExecutionResult` is built
   only where a caller reads one (:meth:`TCPU.execute` and the flight
   recorder).
3. The **compiled trace** (``compile_traces=True``): eligible programs are
   lowered once by :mod:`repro.core.trace` into a single synthesized
   function with no dispatch, no operand decoding, and one inlined bounds
   check per instruction; ineligible programs (conditionals, hazard-laden
   packet layouts) silently fall back to engine 2.

All three produce byte-identical results — the differential sweep in
``tests/test_trace.py`` enforces it, on a cache miss and on a hit.

Both caches are keyed by *identity* of the frozen program and of the
memory it is bound to; the program fixes every value the cached artifact
is specialized on (instructions, word size, addressing mode, hop size).
Identity keys are sound only because each cache entry holds strong
references to its program and its memory: while an entry lives, their ids
cannot be reused, so a key match implies the probing TPP carries *that*
program and runs on *that* memory.  A program cannot be mutated, so a TPP
with different instructions is a different program and can never hit a
stale plan (regression-tested in ``tests/test_trace.py``).  Plans and
traces bake in the write-enable knob, so setting :attr:`TCPU.write_enabled`
to a new value drops both caches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from struct import Struct
from typing import Callable, Optional, Protocol

from . import addressing
from .isa import Instruction, Opcode
from .packet_format import WORD_FORMAT, AddressingMode, Program, TPP

#: Bounded size of the per-TCPU plan and trace caches (templates are few; this
#: only guards against pathological workloads with unbounded unique programs).
_PLAN_CACHE_LIMIT = 1024


@dataclass(slots=True)
class PacketContext:
    """Per-packet metadata available to a TPP at execution time (Tables 7/8)."""

    input_port: int = 0
    output_port: int = 0
    output_queue: int = 0
    matched_entry_id: int = 0
    matched_entry_version: int = 0
    matched_stage: int = 0
    hop_number: int = 0
    path_id: int = 0
    packet_length: int = 0
    arrival_time: float = 0.0

    def metadata_word(self, field_offset: int) -> Optional[int]:
        """Resolve a ``PacketMetadata:`` field offset to its value.

        The arrival timestamp is kept to 32 bits here (the widest word a TPP
        can carry); the TCPU masks every metadata read down to the executing
        TPP's word size, so narrower TPPs see a well-defined truncation.
        """
        reader = METADATA_READERS.get(field_offset)
        return None if reader is None else reader(self)


_M = addressing.PACKET_METADATA_FIELDS
#: ``PacketMetadata:`` — field offset -> ``row(context)``: the one declaration
#: of each field, shared by :meth:`PacketContext.metadata_word` and the
#: switch memory map (:mod:`repro.switches.memory`).
METADATA_READERS = {
    _M["InputPort"]: attrgetter("input_port"),
    _M["OutputPort"]: attrgetter("output_port"),
    _M["OutputQueue"]: attrgetter("output_queue"),
    _M["MatchedEntryID"]: attrgetter("matched_entry_id"),
    _M["MatchedEntryVersion"]: attrgetter("matched_entry_version"),
    _M["MatchedStage"]: attrgetter("matched_stage"),
    _M["HopNumber"]: attrgetter("hop_number"),
    _M["PathID"]: attrgetter("path_id"),
    _M["PacketLength"]: attrgetter("packet_length"),
    # Microsecond timestamp, kept to the widest word a TPP can carry.
    _M["ArrivalTimestamp"]: lambda context: int(context.arrival_time * 1e6) & 0xFFFFFFFF,
}


class MemoryInterface(Protocol):
    """What the TCPU needs from a switch to execute instructions."""

    def read(self, address: int, context: PacketContext) -> Optional[int]:
        """Return the word at ``address`` or None when it does not exist."""
        ...

    def write(self, address: int, value: int, context: PacketContext) -> bool:
        """Write ``value`` at ``address``; False when the address is absent or read-only."""
        ...


class InstructionStatus(enum.Enum):
    """Per-instruction outcome recorded in the execution trace."""

    EXECUTED = "executed"
    SKIPPED_NO_MEMORY = "skipped_no_memory"
    SKIPPED_PACKET_FULL = "skipped_packet_full"
    SKIPPED_HALTED = "skipped_halted"
    SKIPPED_WRITE_DISABLED = "skipped_write_disabled"
    FAILED_CONDITION = "failed_condition"


# Bound once: an enum member read through its class costs a descriptor call in
# CPython 3.11+, and the interpreter names a status on every instruction.
_EXECUTED = InstructionStatus.EXECUTED
_SKIPPED_NO_MEMORY = InstructionStatus.SKIPPED_NO_MEMORY
_SKIPPED_PACKET_FULL = InstructionStatus.SKIPPED_PACKET_FULL
_SKIPPED_HALTED = InstructionStatus.SKIPPED_HALTED
_SKIPPED_WRITE_DISABLED = InstructionStatus.SKIPPED_WRITE_DISABLED
_FAILED_CONDITION = InstructionStatus.FAILED_CONDITION


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of executing one TPP at one hop: a status per instruction and
    whether a failed condition halted the rest (§3.3)."""

    statuses: list[InstructionStatus] = field(default_factory=list)
    halted: bool = False

    @property
    def executed_count(self) -> int:
        """Instructions executed, the failed condition that halted included
        (only a halting hop has one)."""
        return self.statuses.count(_EXECUTED) + self.halted

    @property
    def packet_full(self) -> bool:
        """True when any instruction was skipped because packet memory ran out."""
        return _SKIPPED_PACKET_FULL in self.statuses

    @property
    def status_label(self) -> str:
        """A one-word outcome summary, worst condition first.

        Observers (the flight recorder's tpp-exec records) want a compact
        label, not the per-instruction status list: ``halted`` (CEXEC guard
        failed, §3.3), ``out-of-room`` (packet memory exhausted at this
        hop), ``write-disabled`` (a store suppressed by the administrator
        knob of §4.3), or ``ok``.
        """
        if self.halted:
            return "halted"
        statuses = self.statuses
        if _SKIPPED_PACKET_FULL in statuses:
            return "out-of-room"
        if _SKIPPED_WRITE_DISABLED in statuses:
            return "write-disabled"
        return "ok"

    def __bool__(self) -> bool:
        return not self.halted


# ------------------------------------------------------------- bound plans
def _resolvers(memory: MemoryInterface) -> tuple[Callable, Callable]:
    """``(read_resolver, write_resolver)`` for ``memory``.

    A :class:`~repro.switches.memory.SwitchMemory` hands out the very closures
    its ``read`` / ``write`` call; any other interface gets closures over its
    ``read`` / ``write``, which is correct for every :class:`MemoryInterface`.
    """
    read_resolver = getattr(memory, "read_resolver", None)
    write_resolver = getattr(memory, "write_resolver", None)
    if read_resolver is not None and write_resolver is not None:
        return read_resolver, write_resolver
    read, write = memory.read, memory.write
    return ((lambda address: lambda context: read(address, context)),
            (lambda address: lambda value, context: write(address, value, context)))


#: word size -> ``struct.Struct`` of one big-endian packet word and of two
#: adjacent ones; the caller has range-checked the offset and masked the
#: value to the word size.
_WORD_STRUCTS = {size: (Struct(">" + code), Struct(">" + 2 * code))
                 for size, code in WORD_FORMAT.items()}


def _nop(tpp: TPP, context: PacketContext) -> InstructionStatus:
    return _EXECUTED


def _write_disabled(tpp: TPP, context: PacketContext) -> InstructionStatus:
    return _SKIPPED_WRITE_DISABLED


def _bind_step(instruction: Instruction, read_resolver: Callable,
               write_resolver: Callable, word_bytes: int, hop_size: int,
               write_enabled: bool) -> Callable:
    """``instruction`` as ``step(tpp, context) -> InstructionStatus``.

    Each step makes the checks of its ``TCPU._op_*`` handler in the same
    order; what the handler works out per hop — the address's row, the word
    mask, the packet byte offset (plus ``hop_number * hop_size``; ``hop_size``
    is 0 in stack mode) and the write-enable knob — is fixed here, once.
    """
    opcode = instruction.opcode
    if opcode is Opcode.NOP:
        return _nop
    if opcode in (Opcode.POP, Opcode.STORE) and not write_enabled:
        return _write_disabled
    mask = (1 << (8 * word_bytes)) - 1
    base = instruction.packet_offset * word_bytes
    word, pair = _WORD_STRUCTS[word_bytes]
    get, put, get_pair = word.unpack_from, word.pack_into, pair.unpack_from
    read = read_resolver(instruction.address) if instruction.reads_switch else None
    write = write_resolver(instruction.address) if instruction.writes_switch else None

    if opcode is Opcode.PUSH:
        def push(tpp: TPP, context: PacketContext) -> InstructionStatus:
            value = read(context)
            if value is None:
                return _SKIPPED_NO_MEMORY
            memory, offset = tpp.memory, tpp.stack_pointer
            if offset < 0 or offset + word_bytes > len(memory):
                return _SKIPPED_PACKET_FULL
            put(memory, offset, value & mask)
            tpp.stack_pointer = offset + word_bytes
            return _EXECUTED
        return push

    if opcode is Opcode.LOAD:
        def load(tpp: TPP, context: PacketContext) -> InstructionStatus:
            value = read(context)
            if value is None:
                return _SKIPPED_NO_MEMORY
            memory, offset = tpp.memory, tpp.hop_number * hop_size + base
            if offset < 0 or offset + word_bytes > len(memory):
                return _SKIPPED_PACKET_FULL
            put(memory, offset, value & mask)
            return _EXECUTED
        return load

    if opcode is Opcode.POP:
        def pop(tpp: TPP, context: PacketContext) -> InstructionStatus:
            memory, offset = tpp.memory, tpp.stack_pointer
            if offset < 0 or offset + word_bytes > len(memory):
                return _SKIPPED_PACKET_FULL
            tpp.stack_pointer = offset + word_bytes
            return _EXECUTED if write(get(memory, offset)[0], context) else _SKIPPED_NO_MEMORY
        return pop

    if opcode is Opcode.STORE:
        def store(tpp: TPP, context: PacketContext) -> InstructionStatus:
            memory, offset = tpp.memory, tpp.hop_number * hop_size + base
            if offset < 0 or offset + word_bytes > len(memory):
                return _SKIPPED_PACKET_FULL
            return _EXECUTED if write(get(memory, offset)[0], context) else _SKIPPED_NO_MEMORY
        return store

    if opcode is Opcode.CSTORE:
        def cstore(tpp: TPP, context: PacketContext) -> InstructionStatus:
            current = read(context)
            memory, offset = tpp.memory, tpp.hop_number * hop_size + base
            if current is None or offset < 0 or offset + 2 * word_bytes > len(memory):
                return _FAILED_CONDITION
            current &= mask
            old, new = get_pair(memory, offset)
            if current != old:
                put(memory, offset, current)
                return _FAILED_CONDITION
            if not write_enabled:
                return _SKIPPED_WRITE_DISABLED
            if not write(new, context):
                return _FAILED_CONDITION
            put(memory, offset, new)
            return _EXECUTED
        return cstore

    def cexec(tpp: TPP, context: PacketContext) -> InstructionStatus:
        switch_value = read(context)
        memory, offset = tpp.memory, tpp.hop_number * hop_size + base
        if switch_value is None or offset < 0 or offset + 2 * word_bytes > len(memory):
            return _FAILED_CONDITION
        # Packet words already fit the word mask, so only the switch
        # value's high bits need it — and the packet mask clears them.
        packet_mask, value = get_pair(memory, offset)
        return _EXECUTED if switch_value & packet_mask == value else _FAILED_CONDITION
    return cexec


def _bind_plan(program: Program, memory: MemoryInterface, write_enabled: bool) -> tuple:
    """``program`` bound to ``memory``: ``(steps, program, memory)``, the
    last two pinned for the cache key."""
    read_resolver, write_resolver = _resolvers(memory)
    hop_size = program.hop_size if program.mode is AddressingMode.HOP else 0
    steps = tuple(_bind_step(instruction, read_resolver, write_resolver,
                             program.word_bytes, hop_size, write_enabled)
                  for instruction in program.instructions)
    return steps, program, memory


class TCPU:
    """Executes TPPs against a :class:`MemoryInterface`.

    Args:
        write_enabled: when False, all switch-memory writes (STORE, POP,
            CSTORE's store half) are suppressed — the administrator knob of
            §4.3.  Reads still execute, and CSTORE still writes the observed
            switch value back into packet memory so end-hosts see a coherent
            failure (§3.3.3).
        compile_traces: when True, :meth:`execute_program` lowers eligible
            programs through :mod:`repro.core.trace` into per-program
            compiled traces and executes those; ineligible programs fall
            back to the bound plan.  Results are byte-identical
            either way.  The flag may be flipped at any time — both engines
            share no mutable state beyond the counters.
    """

    def __init__(self, write_enabled: bool = True,
                 compile_traces: bool = False) -> None:
        self._write_enabled = write_enabled
        self.compile_traces = compile_traces
        self.tpps_executed = 0
        self.instructions_executed = 0
        # Trace-engine telemetry (benchmarks and tests read these).
        self.traces_compiled = 0
        self.trace_executions = 0
        self.trace_fallbacks = 0
        # Cache-health telemetry: how often execute_program found its plan /
        # bound trace already cached.  Plain int increments (one per hop) so
        # the hot path never tests a telemetry flag; observers read them
        # through counters().
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0
        # Opcode dispatch table, built once; the per-instruction hot path is
        # a single dict lookup instead of an if-ladder.
        self._dispatch = {
            Opcode.NOP: self._op_nop,
            Opcode.PUSH: self._op_push,
            Opcode.POP: self._op_pop,
            Opcode.LOAD: self._op_load,
            Opcode.STORE: self._op_store,
            Opcode.CSTORE: self._op_cstore,
            Opcode.CEXEC: self._op_cexec,
        }
        # Identity-keyed caches (see the module docstring for the soundness
        # argument): every entry pins the objects its key names, so a key
        # can only match the exact program and memory it was built from.
        # Bound plans: (program, id(memory)) -> _bind_plan's (steps,
        # program, memory).
        # write_enabled is baked into each plan; the setter clears them.
        self._plan_cache: dict[tuple, tuple] = {}
        # Program-level trace cache: program -> CompiledTrace | None (the
        # dict key pins the program).  write_enabled is baked into each
        # trace; the write_enabled setter clears both trace caches.
        self._trace_programs: dict[Program, object] = {}
        # Memory-bound trace cache: (program, id(memory)) -> (bound fn |
        # None, pinned program, pinned memory).  Each TCPU executes against
        # one switch's MemoryInterface in practice, so this holds one
        # binding per program.
        self._trace_cache: dict[tuple, tuple] = {}

    def counters(self) -> dict[str, int]:
        """This TCPU's execution/cache accounting, by canonical metric name.

        ``Experiment.counters()`` sums these across every switch as
        ``tcpu.<name>`` — observation is a read at snapshot time, so the
        hot path never sees an observer.
        """
        return {
            "tpps_executed": self.tpps_executed,
            "instructions_executed": self.instructions_executed,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "trace_cache_hits": self.trace_cache_hits,
            "trace_cache_misses": self.trace_cache_misses,
            "traces_compiled": self.traces_compiled,
            "trace_executions": self.trace_executions,
            "trace_fallbacks": self.trace_fallbacks,
        }

    @property
    def write_enabled(self) -> bool:
        """The §4.3 write-disable knob.  Bound plans and compiled traces bake
        it in, so the setter drops every cached plan and trace; flipping it
        mid-run is safe (and rare — it is an administrative action)."""
        return self._write_enabled

    @write_enabled.setter
    def write_enabled(self, enabled: bool) -> None:
        if enabled != self._write_enabled:
            self._plan_cache.clear()
            self._trace_programs.clear()
            self._trace_cache.clear()
        self._write_enabled = enabled

    # ------------------------------------------------------------------ main
    def execute(self, tpp: TPP, memory: MemoryInterface,
                context: PacketContext) -> ExecutionResult:
        """Execute every instruction of ``tpp`` once (one hop's worth): the
        reference interpreter, uncached."""
        dispatch = self._dispatch
        steps = [(dispatch[instruction.opcode], instruction)
                 for instruction in tpp.instructions]
        return self._run_steps(steps, (1 << (8 * tpp.word_bytes)) - 1,
                               tpp, memory, context)

    def execute_program(self, tpp: TPP, memory: MemoryInterface,
                        context: PacketContext) -> list[InstructionStatus]:
        """Fast path: like :meth:`execute`, run as a cached bound plan, and
        return the hop's statuses (a failed condition halted the rest iff
        ``FAILED_CONDITION`` is among them).

        TPPs stamped from one template share its frozen
        :class:`~repro.core.packet_format.Program`, so every packet of an
        instrumented flow after the first hits the cache.  With
        ``compile_traces`` set, eligible programs run their compiled trace
        (see :mod:`repro.core.trace`); everything else runs its bound plan.
        All paths return identical statuses.
        """
        key = (tpp.program, id(memory))
        if self.compile_traces:
            entry = self._trace_cache.get(key)
            if entry is None:
                self.trace_cache_misses += 1
                entry = self._bind_trace(tpp.program, memory, key)
            else:
                self.trace_cache_hits += 1
            fn = entry[0]
            if fn is not None:
                self.trace_executions += 1
                return fn(self, tpp, context)
            self.trace_fallbacks += 1
        plan = self._plan_cache.get(key)
        if plan is not None:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
            plan = _bind_plan(tpp.program, memory, self._write_enabled)
            if len(self._plan_cache) < _PLAN_CACHE_LIMIT:
                self._plan_cache[key] = plan
        steps = plan[0]
        self.tpps_executed += 1
        statuses = []
        for step in steps:
            status = step(tpp, context)
            statuses.append(status)
            if status is _FAILED_CONDITION:          # halts the hop (§3.3.3)
                statuses += [_SKIPPED_HALTED] * (len(steps) - len(statuses))
                self.instructions_executed += 1
                break
        self.instructions_executed += statuses.count(_EXECUTED)
        return statuses

    def _bind_trace(self, program: Program, memory: MemoryInterface, key: tuple) -> tuple:
        """Lower ``program`` (once) and bind it to ``memory`` (once).

        Both cache layers pin every object their key names (the program,
        and for bindings the memory interface), keeping the identity keys
        sound; ineligible programs are cached as negative entries so the
        fallback decision is also O(1).
        """
        from . import trace  # deferred: repro.core.trace imports this module

        compiled = self._trace_programs.get(program)
        if compiled is None and program not in self._trace_programs:
            compiled = trace.compile_trace(
                program.instructions, word_bytes=program.word_bytes, mode=program.mode,
                hop_size=program.hop_size, write_enabled=self.write_enabled)
            if compiled is not None:
                self.traces_compiled += 1
            if len(self._trace_programs) < _PLAN_CACHE_LIMIT:
                self._trace_programs[program] = compiled
        fn = compiled.bind(memory) if compiled is not None else None
        entry = (fn, program, memory)
        if len(self._trace_cache) < _PLAN_CACHE_LIMIT:
            self._trace_cache[key] = entry
        return entry

    def _run_steps(self, steps: list, word_mask: int, tpp: TPP,
                   memory: MemoryInterface, context: PacketContext) -> ExecutionResult:
        statuses = []
        halted = False
        for handler, instruction in steps:
            status = (_SKIPPED_HALTED if halted
                      else handler(instruction, tpp, memory, context, word_mask))
            statuses.append(status)
            halted = halted or status is _FAILED_CONDITION
        self.tpps_executed += 1
        self.instructions_executed += statuses.count(_EXECUTED) + halted
        return ExecutionResult(statuses, halted)

    # ----------------------------------------------------------- per opcode
    def _op_nop(self, instruction: Instruction, tpp: TPP, memory: MemoryInterface,
                context: PacketContext, word_mask: int) -> InstructionStatus:
        return _EXECUTED

    def _op_push(self, instruction: Instruction, tpp: TPP, memory: MemoryInterface,
                 context: PacketContext, word_mask: int) -> InstructionStatus:
        value = memory.read(instruction.address, context)
        if value is None:
            return _SKIPPED_NO_MEMORY
        if not tpp.push(value & word_mask):
            return _SKIPPED_PACKET_FULL
        return _EXECUTED

    def _op_pop(self, instruction: Instruction, tpp: TPP, memory: MemoryInterface,
                context: PacketContext, word_mask: int) -> InstructionStatus:
        if not self.write_enabled:
            return _SKIPPED_WRITE_DISABLED
        value = tpp.pop()
        if value is None:
            return _SKIPPED_PACKET_FULL
        if not memory.write(instruction.address, value, context):
            return _SKIPPED_NO_MEMORY
        return _EXECUTED

    def _op_load(self, instruction: Instruction, tpp: TPP, memory: MemoryInterface,
                 context: PacketContext, word_mask: int) -> InstructionStatus:
        value = memory.read(instruction.address, context)
        if value is None:
            return _SKIPPED_NO_MEMORY
        if not tpp.write_hop_word(instruction.packet_offset, value & word_mask):
            return _SKIPPED_PACKET_FULL
        return _EXECUTED

    def _op_store(self, instruction: Instruction, tpp: TPP, memory: MemoryInterface,
                  context: PacketContext, word_mask: int) -> InstructionStatus:
        if not self.write_enabled:
            return _SKIPPED_WRITE_DISABLED
        value = tpp.read_hop_word(instruction.packet_offset)
        if value is None:
            return _SKIPPED_PACKET_FULL
        if not memory.write(instruction.address, value, context):
            return _SKIPPED_NO_MEMORY
        return _EXECUTED

    def _op_cstore(self, instruction: Instruction, tpp: TPP, memory: MemoryInterface,
                   context: PacketContext, word_mask: int) -> InstructionStatus:
        """CSTORE dst, old, new — compare-and-swap gating later instructions (§3.3.3)."""
        current = memory.read(instruction.address, context)
        old = tpp.read_hop_word(instruction.packet_offset)
        new = tpp.read_hop_word(instruction.packet_offset + 1)
        if current is None or old is None or new is None:
            return _FAILED_CONDITION
        current &= word_mask
        succeeded = current == (old & word_mask)
        if succeeded:
            if not self.write_enabled:
                # The store half is suppressed.  The "old" slot already holds
                # the observed value (the compare just succeeded on it), so
                # the end-host sees a coherent §3.3.3 record as-is.
                return _SKIPPED_WRITE_DISABLED
            if not memory.write(instruction.address, new, context):
                return _FAILED_CONDITION
            observed = new & word_mask
        else:
            observed = current
        # Always write the observed value of X back into the "old" slot so the
        # end-host can tell whether the compare-and-swap succeeded.
        tpp.write_hop_word(instruction.packet_offset, observed)
        return _EXECUTED if succeeded else _FAILED_CONDITION

    def _op_cexec(self, instruction: Instruction, tpp: TPP, memory: MemoryInterface,
                  context: PacketContext, word_mask: int) -> InstructionStatus:
        """CEXEC addr, [mask, value] — gate the rest of the TPP on a predicate."""
        switch_value = memory.read(instruction.address, context)
        mask = tpp.read_hop_word(instruction.packet_offset)
        value = tpp.read_hop_word(instruction.packet_offset + 1)
        if switch_value is None or mask is None or value is None:
            return _FAILED_CONDITION
        if (switch_value & mask & word_mask) == (value & word_mask):
            return _EXECUTED
        return _FAILED_CONDITION
