"""Differential tests for the TCPU's cached engines against its interpreter.

The bound plan (``execute_program``) and the compiled trace
(``compile_traces=True``, :mod:`repro.core.trace`) must be
*instruction-for-instruction* identical to the reference interpreter
(``execute``) — same statuses, same packet memory, same switch-memory
writes, same counters — on every program, eligible or not, on a cache miss
and on a cache hit.  This file holds:

* a property-style sweep running randomized valid programs through all
  three engines, each engine twice on one TCPU and one memory (a miss, then
  a hit a hop further along), against a dict-backed memory (the closures
  over ``read`` / ``write``) and a real switch's ``SwitchMemory`` (its
  resolvers), including a flip of the write-enable knob between the two
  runs (``REPRO_HYPOTHESIS_PROFILE=quick`` shrinks the sweep for CI's docs
  job);
* decoded wire TPPs (``wire_tpps``) through both engines on one switch,
  and through ``TPPSwitch.receive`` on a k=4 fat-tree, where the packet
  must be delivered or counted once in a drop ledger;
* resolver equivalence checks against a real switch's ``SwitchMemory``;
* regression tests for the cache-keying contract: a different program,
  changed word size / addressing mode / hop size, or a flipped
  write-enable knob can never hit a stale plan or trace;
* plumbing tests for the ``compile_traces`` toggle through ``TPPSwitch``,
  ``DataplaneShim`` eligibility accounting, and ``Scenario``.
"""

import os
import random

from hypothesis import given, settings, strategies as st

from repro.core import addressing
from repro.core.compiler import compile_tpp
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import TPP, AddressingMode, checksum16, make_tpp
from repro.core.static_analysis import trace_ineligibility
from repro.core.tcpu import InstructionStatus, PacketContext, TCPU
from repro.core.trace import compile_trace, trace_eligible
from repro.endhost.filters import PacketFilter
from repro.net.link import gbps
from repro.net.packet import udp_packet
from repro.net.sim import Simulator
from repro.net.topology import build_fat_tree
from repro.session import Scenario
from repro.switches.switch import TPPSwitch

settings.register_profile("quick", max_examples=15)
settings.register_profile("default", max_examples=80)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


class DictMemory:
    """MemoryInterface backed by a dict, with optional read-only addresses."""

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


def fresh_switch():
    """A 2-stage, 3-port switch with one route and one non-zero register;
    every call gives a switch in the same state."""
    switch = TPPSwitch(Simulator(), "s1", switch_id=42, num_stages=2)
    for _ in range(3):
        switch.add_port()
    switch.install_route("h1", output_port=1)
    switch.pipeline.stages[1].registers[3] = 0x1234
    return switch


#: Address pool: some populated, one read-only, one absent.
ADDRESSES = [0x0000, 0x0001, 0x1010, 0x1011, 0xBEEF]
PRESENT = {0x0000: 7, 0x0001: 0x1234, 0x1010: 0, 0x1011: 0xFFFF}
READ_ONLY = {0x0001}
#: A switch's pool: read-only and writable rows, fixed and packet-relative
#: ports, a range-checked metadata store, and an unmapped address.
SWITCH_ADDRESSES = [addressing.resolve(name) for name in (
    "[Switch:SwitchID]", "[Link:AppSpecific_0]", "[Link$1:AppSpecific_2]",
    "[Stage$1:Reg3]", "[PacketMetadata:OutputPort]", "[Queue:QueueOccupancy]",
)] + [0xFFFF]

#: memory kind -> (address pool, a fresh memory in a fixed state).
MEMORIES = {
    "dict": (ADDRESSES, lambda: DictMemory(PRESENT, READ_ONLY)),
    "switch": (SWITCH_ADDRESSES, lambda: fresh_switch().memory),
}

trace_opcodes = st.sampled_from([Opcode.NOP, Opcode.PUSH, Opcode.POP,
                                 Opcode.LOAD, Opcode.STORE])
all_opcodes = st.sampled_from(list(Opcode))


def programs(opcodes, kind="dict"):
    return st.lists(
        st.builds(Instruction, opcode=opcodes,
                  address=st.sampled_from(MEMORIES[kind][0]),
                  packet_offset=st.integers(min_value=0, max_value=4)),
        min_size=1, max_size=5)


def memory_programs(opcodes):
    """``(memory kind, program over that kind's address pool)``."""
    return st.sampled_from(sorted(MEMORIES)).flatmap(
        lambda kind: st.tuples(st.just(kind), programs(opcodes, kind)))


def memory_state(memory):
    """Everything a TPP can have written in ``memory``."""
    if isinstance(memory, DictMemory):
        return memory.values
    return (memory.app_registers,
            [stage.registers for stage in memory.switch.pipeline.stages])


def run_all_engines(program, *, word_bytes, mode, num_hops, hop_number,
                    stack_pointer, fill, write_enabled=True, flip_write=False,
                    memory="dict"):
    """Run one program through interpreter / bound plan / compiled trace.

    Each engine gets one TCPU and one fresh ``memory`` and runs the program
    twice: a cache miss on a clone of the template, then — after flipping
    ``write_enabled`` when ``flip_write`` is set — a cache hit (a miss after
    a flip) on a second clone one hop further along.  Returns per engine
    ``(runs, memory, tcpu)``, with ``(result, tpp, context)`` per run: the
    interpreter's ``ExecutionResult``, the other engines' statuses list.
    """
    values_per_hop = 3                      # room for offsets 0..2, plus slack
    template = make_tpp(program, num_hops=num_hops, mode=mode,
                        word_bytes=word_bytes, values_per_hop=values_per_hop)
    rng = random.Random(fill)
    template.memory[:] = bytes(rng.randrange(256) for _ in range(len(template.memory)))
    template.hop_number = hop_number
    template.stack_pointer = stack_pointer

    outcomes = []
    for engine in ("execute", "plan", "trace"):
        tcpu = TCPU(write_enabled=write_enabled,
                    compile_traces=(engine == "trace"))
        state = MEMORIES[memory][1]()
        execute = tcpu.execute if engine == "execute" else tcpu.execute_program
        runs = []
        for later in (0, 1):
            if later and flip_write:
                tcpu.write_enabled = not write_enabled
            tpp = template.clone()
            tpp.hop_number += later
            context = PacketContext(input_port=1, output_port=2, packet_length=700,
                                    arrival_time=1.5)
            runs.append((execute(tpp, state, context), tpp, context))
        outcomes.append((runs, state, tcpu))
    plan_tcpu = outcomes[1][2]
    assert plan_tcpu.plan_cache_hits == (0 if flip_write else 1)
    return outcomes


def assert_engines_agree(outcomes):
    (reference_runs, reference_memory, reference_tcpu), *others = outcomes
    for runs, memory, tcpu in others:
        for reference, run in zip(reference_runs, runs):
            (ref_result, ref_tpp, ref_context), (result, tpp, context) = reference, run
            assert result == ref_result.statuses
            assert ref_result.halted == (InstructionStatus.FAILED_CONDITION in result)
            assert tpp.memory == ref_tpp.memory
            assert tpp.stack_pointer == ref_tpp.stack_pointer
            assert tpp.hop_number == ref_tpp.hop_number
            assert context == ref_context
        assert memory_state(memory) == memory_state(reference_memory)
        assert tcpu.tpps_executed == reference_tcpu.tpps_executed
        assert tcpu.instructions_executed == reference_tcpu.instructions_executed


KNOBS = (st.sampled_from([2, 4]),
         st.sampled_from([AddressingMode.STACK, AddressingMode.HOP]),
         st.integers(min_value=1, max_value=6),
         st.integers(min_value=0, max_value=8),
         st.integers(min_value=0, max_value=60),
         st.integers(min_value=0, max_value=2**16))


class TestDifferentialSweep:
    """Random valid programs: the three engines must be indistinguishable."""

    @given(programs(trace_opcodes), *KNOBS)
    def test_trace_eligible_programs(self, program, word_bytes, mode, num_hops,
                                     hop_number, stack_pointer, fill):
        assert_engines_agree(run_all_engines(
            program, word_bytes=word_bytes, mode=mode, num_hops=num_hops,
            hop_number=hop_number, stack_pointer=stack_pointer, fill=fill))

    @given(memory_programs(all_opcodes), *KNOBS, st.booleans())
    def test_any_program_any_knobs(self, kind_program, word_bytes, mode, num_hops,
                                   hop_number, stack_pointer, fill, write_enabled):
        """Conditionals (trace fallback) and write-disable included, against
        a dict-backed memory and a real switch's memory map."""
        kind, program = kind_program
        assert_engines_agree(run_all_engines(
            program, word_bytes=word_bytes, mode=mode, num_hops=num_hops,
            hop_number=hop_number, stack_pointer=stack_pointer, fill=fill,
            write_enabled=write_enabled, memory=kind))

    @given(memory_programs(all_opcodes), *KNOBS, st.booleans())
    def test_write_enabled_flip_between_runs(self, kind_program, word_bytes, mode,
                                             num_hops, hop_number, stack_pointer,
                                             fill, write_enabled):
        """Plans and traces bake the knob in: the second run, after the
        flip, must behave as the interpreter does under the new setting."""
        kind, program = kind_program
        assert_engines_agree(run_all_engines(
            program, word_bytes=word_bytes, mode=mode, num_hops=num_hops,
            hop_number=hop_number, stack_pointer=stack_pointer, fill=fill,
            write_enabled=write_enabled, flip_write=True, memory=kind))


@st.composite
def wire_tpps(draw):
    """Encoded TPPs that decode — valid checksum, at most 5 instructions,
    at most 200 bytes of packet memory — with every other header and body
    byte free: any hop number and stack pointer up to 255 (far past the end
    of memory), any hop size, any opcode, address and packet offset."""
    mode, word_code = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    instructions = b"".join(
        bytes((draw(st.integers(0, 6)) << 4 | draw(st.integers(0, 15)),
               *draw(st.one_of(st.sampled_from(SWITCH_ADDRESSES),
                               st.integers(0, 0xFFFF))).to_bytes(2, "big"),
               draw(st.integers(0, 255))))
        for _ in range(draw(st.integers(0, 5))))
    memory = draw(st.binary(max_size=200))
    body = instructions + memory
    check = checksum16(body)
    header = bytes((draw(st.integers(0, 15)) << 4 | mode << 2 | word_code,
                    len(instructions) // 4, len(memory) >> 8, len(memory) & 0xFF,
                    draw(st.integers(0, 255)),                      # hop number
                    draw(st.integers(0, 255)),                      # stack pointer
                    draw(st.integers(1 if mode else 0, 255)),       # hop size
                    draw(st.integers(0, 2)),                        # encapsulation
                    check >> 8, check & 0xFF,
                    *draw(st.integers(0, 0xFFFF)).to_bytes(2, "big")))
    return header + body


class TestDecodedAbsurdTPPs:
    """Whatever decodes, a switch executes: every outcome is a named
    ``InstructionStatus``, the bound plan agrees with the interpreter, and
    nothing raises (§3.3's graceful failure)."""

    @given(wire_tpps())
    def test_bound_plan_matches_interpreter_on_a_switch(self, data):
        template = TPP.decode(data)
        reference_switch, switch = fresh_switch(), fresh_switch()
        interpreter = TCPU()
        for later in (0, 1):       # two clones of one program: a miss, then hits
            reference, subject = TPP.decode(data), template.clone()
            assert subject.program is template.program
            reference.hop_number += later
            subject.hop_number += later
            for _ in range(2):     # each clone a hop on, over what its last hop wrote
                reference_context = PacketContext(1, 2, 0, 3, 1, 0, reference.hop_number,
                                                  9, 700, 1.5)
                context = PacketContext(1, 2, 0, 3, 1, 0, subject.hop_number, 9, 700, 1.5)
                expected = interpreter.execute(reference, reference_switch.memory,
                                               reference_context)
                got = switch.tcpu.execute_program(subject, switch.memory, context)
                assert len(got) == len(subject.instructions)
                assert all(isinstance(status, InstructionStatus) for status in got)
                assert got == expected.statuses
                assert expected.halted == (InstructionStatus.FAILED_CONDITION in got)
                assert subject == reference
                assert context == reference_context
                reference.advance_hop()
                subject.advance_hop()
        assert (switch.tcpu.plan_cache_misses, switch.tcpu.plan_cache_hits) == (1, 3)
        assert memory_state(switch.memory) == memory_state(reference_switch.memory)
        assert switch.tcpu.instructions_executed == interpreter.instructions_executed


class TestDecodedTPPsOnAFatTree:
    """The wire fuzz, switch side: a decoded TPP rides a cross-pod UDP
    packet through ``TPPSwitch.receive`` on a k=4 fat-tree, optionally
    reflected (§4.4) at a drawn switch.  Whatever the program does, nothing
    raises, the packet is delivered or counted once in a drop ledger, and
    every switch that saw it ran it exactly once."""

    @given(wire_tpps(), st.one_of(st.none(), st.integers(1, 20)))
    def test_packet_is_delivered_or_counted_once(self, data, reflect_switch):
        sim = Simulator()
        net = build_fat_tree(sim, k=4).network
        tpp = TPP.decode(data)
        first_hop = tpp.hop_number
        packet = udp_packet("h0_0_0", "h3_1_1", 200)
        packet.attach_tpp(tpp)
        if reflect_switch is not None:                  # switch ids run 1..20
            packet.metadata["tpp_reflect_switch"] = reflect_switch
        net.hosts["h0_0_0"].send(packet)
        net.stop_switch_processes()
        sim.run_until_idle()
        switches, hosts = net.switches.values(), net.hosts.values()
        delivered = sum(host.packets_received for host in hosts)
        ledgers = sum(sum(switch.drops_by_reason.values()) for switch in switches) + sum(
            sum(port.drops_by_reason.values())
            for node in (*switches, *hosts) for port in node.ports)
        assert (delivered, ledgers) == ((0, 1) if packet.dropped else (1, 0))
        hops = tpp.hop_number - first_hop
        assert sum(switch.tcpu.tpps_executed for switch in switches) == hops
        assert sum(switch.tpp_packets_seen for switch in switches) == hops


class TestResolverEquivalence:
    """SwitchMemory.read_resolver must agree with SwitchMemory.read."""

    def test_every_known_statistic_matches(self, subtests=None):
        switch = fresh_switch()
        contexts = [
            PacketContext(),
            PacketContext(input_port=1, output_port=2, output_queue=0,
                          matched_entry_id=3, matched_stage=1, hop_number=2,
                          path_id=9, packet_length=1500, arrival_time=2.5),
            PacketContext(output_port=77),           # out-of-range port
            PacketContext(output_queue=1),           # nonexistent queue id
        ]
        names = []
        for region, fields in (("Switch", addressing.SWITCH_FIELDS),
                               ("PacketMetadata", addressing.PACKET_METADATA_FIELDS),
                               ("Queue", addressing.QUEUE_FIELDS),
                               ("Link", addressing.LINK_FIELDS)):
            names.extend(f"[{region}:{field}]" for field in fields)
        names.extend(["[Stage$0:LookupPackets]", "[Stage$0:Reg0]",
                      "[Link$1:TX-Bytes]", "[Queue$1$0:QueueOccupancy]"])
        checked = 0
        for name in names:
            address = addressing.resolve(name)
            resolver = switch.memory.read_resolver(address)
            for context in contexts:
                assert resolver(context) == switch.memory.read(address, context), \
                    f"resolver diverged for {name} with {context}"
                checked += 1
        assert checked > 100

    def test_invalid_address_resolves_to_none(self):
        switch = fresh_switch()
        for address in (0xFFFF, 0xFDFF):
            resolver = switch.memory.read_resolver(address)
            assert resolver(PacketContext()) is None
            assert switch.memory.read(address, PacketContext()) is None


class TestEligibility:
    def test_conditionals_are_ineligible(self):
        for opcode in (Opcode.CSTORE, Opcode.CEXEC):
            program = [Instruction(opcode, 0x0000, packet_offset=0)]
            assert not trace_eligible(program)
            assert "conditional" in trace_ineligibility(program)

    def test_hazardous_packet_layout_is_ineligible(self):
        program = [Instruction(Opcode.LOAD, 0x0000, packet_offset=0),
                   Instruction(Opcode.LOAD, 0x0001, packet_offset=0)]
        assert not trace_eligible(program)
        assert "hazard" in trace_ineligibility(program)

    def test_straight_line_program_is_eligible(self):
        program = [Instruction(Opcode.PUSH, 0x0000),
                   Instruction(Opcode.LOAD, 0x0001, packet_offset=1)]
        assert trace_eligible(program)
        compiled = compile_trace(program, word_bytes=2,
                                 mode=AddressingMode.STACK, hop_size=0)
        assert compiled is not None
        assert "__tpp_trace" in compiled.source

    def test_ineligible_program_falls_back_and_counts(self):
        program = [Instruction(Opcode.CEXEC, 0x0000, packet_offset=0)]
        tpp = make_tpp(program, num_hops=1, mode=AddressingMode.HOP,
                       values_per_hop=3, initial_values=[0xFFFF, 7, 0])
        tcpu = TCPU(compile_traces=True)
        statuses = tcpu.execute_program(tpp, DictMemory({0x0000: 7}), PacketContext())
        assert statuses == [InstructionStatus.EXECUTED]
        assert tcpu.trace_fallbacks == 1
        assert tcpu.trace_executions == 0


class TestCacheKeying:
    """A TPP with a different program must never hit a stale plan/trace."""

    def _memory(self):
        return DictMemory(PRESENT, READ_ONLY)

    def test_different_program_misses_plan_cache(self):
        a = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU()
        tpp = compile_tpp("PUSH [Switch:SwitchID]\nPUSH [Switch:VersionNumber]").tpp
        memory = DictMemory({a: 5})
        tcpu.execute_program(tpp, memory, PacketContext())
        assert tpp.pushed_words() == [5]
        # One instruction replaced, same memory: a new program object.
        replaced = TPP([tpp.instructions[0], Instruction(Opcode.PUSH, a)],
                       bytearray(len(tpp.memory)))
        memory.values[a] = 9
        tcpu.execute_program(replaced, memory, PacketContext())
        assert replaced.pushed_words() == [9, 9]     # stale plan would push once
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (2, 0)

    def test_grown_program_misses_trace_cache(self):
        a = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU(compile_traces=True)
        tpp = compile_tpp("PUSH [Switch:SwitchID]").tpp
        memory = DictMemory({a: 1})
        tcpu.execute_program(tpp, memory, PacketContext())
        grown = TPP([*tpp.instructions, Instruction(Opcode.PUSH, a)],
                    bytearray(len(tpp.memory)))
        memory.values[a] = 2
        statuses = tcpu.execute_program(grown, memory, PacketContext())
        assert len(statuses) == 2
        assert grown.pushed_words() == [2, 2]
        assert (tcpu.trace_cache_misses, tcpu.traces_compiled) == (2, 2)

    def test_word_bytes_change_recompiles(self):
        address = addressing.resolve("[PacketMetadata:ArrivalTimestamp]")
        program = [Instruction(Opcode.PUSH, address)]

        class MetadataMemory:
            def read(self, addr, context):
                decoded = addressing.decode(addr)
                return context.metadata_word(decoded.field_offset)

            def write(self, addr, value, context):
                return False

        context = PacketContext(arrival_time=1.0)       # 1e6 us = 0xF4240
        tcpu = TCPU(compile_traces=True)
        for word_bytes, expected in ((2, 0xF4240 & 0xFFFF), (4, 0xF4240)):
            tpp = make_tpp(program, num_hops=1, word_bytes=word_bytes)
            tcpu.execute_program(tpp, MetadataMemory(), context)
            assert tpp.pushed_words() == [expected]

    def test_mode_and_hop_size_are_part_of_the_trace_key(self):
        memory_values = {0x0000: 0xAA, 0x0001: 0xBB}
        program = [Instruction(Opcode.LOAD, 0x0000, packet_offset=0),
                   Instruction(Opcode.LOAD, 0x0001, packet_offset=1)]
        tcpu = TCPU(compile_traces=True)

        hop = make_tpp(program, num_hops=3, mode=AddressingMode.HOP,
                       values_per_hop=2)
        hop.hop_number = 2
        tcpu.execute_program(hop, DictMemory(memory_values), PacketContext())
        assert hop.read_hop_word(0, hop=2) == 0xAA      # wrote hop 2's slice
        assert hop.read_hop_word(0, hop=0) == 0

        # Same instruction objects, stack mode: absolute offsets 0 and 1.
        stack = make_tpp(program, num_hops=3, mode=AddressingMode.STACK,
                         values_per_hop=2)
        stack.hop_number = 2
        tcpu.execute_program(stack, DictMemory(memory_values), PacketContext())
        assert stack.read_word_bytes(0) == 0xAA         # absolute word 0
        assert stack.read_word_bytes(2) == 0xBB

    def test_write_enabled_flip_recompiles_traces(self):
        store = [Instruction(Opcode.STORE, 0x1010, packet_offset=0)]
        tcpu = TCPU(compile_traces=True)

        def run():
            tpp = make_tpp(store, num_hops=1, mode=AddressingMode.HOP,
                           initial_values=[55])
            memory = self._memory()
            return tcpu.execute_program(tpp, memory, PacketContext()), memory

        statuses, memory = run()
        assert statuses == [InstructionStatus.EXECUTED]
        assert memory.values[0x1010] == 55

        tcpu.write_enabled = False
        statuses, memory = run()
        assert statuses == [InstructionStatus.SKIPPED_WRITE_DISABLED]
        assert memory.values[0x1010] == 0

        tcpu.write_enabled = True
        statuses, memory = run()
        assert statuses == [InstructionStatus.EXECUTED]
        assert memory.values[0x1010] == 55

    def test_equal_content_different_objects_share_one_compiled_program(self):
        a = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU(compile_traces=True)
        memory = DictMemory({a: 1})
        template = compile_tpp("PUSH [Switch:SwitchID]").tpp
        for _ in range(5):
            tcpu.execute_program(template.clone(), memory, PacketContext())
        assert tcpu.traces_compiled == 1
        assert tcpu.trace_executions == 5

    def test_trace_cache_is_bounded(self):
        from repro.core.tcpu import _PLAN_CACHE_LIMIT
        tcpu = TCPU(compile_traces=True)
        memory = DictMemory(PRESENT)
        for address in range(_PLAN_CACHE_LIMIT + 10):
            tpp = make_tpp([Instruction(Opcode.PUSH, address)], num_hops=1)
            tcpu.execute_program(tpp, memory, PacketContext())
        assert len(tcpu._trace_cache) <= _PLAN_CACHE_LIMIT
        assert len(tcpu._trace_programs) <= _PLAN_CACHE_LIMIT
        assert len(tcpu._plan_cache) <= _PLAN_CACHE_LIMIT


class TestPlumbing:
    def _scenario(self, compile_traces):
        return (Scenario("dumbbell", seed=3, hosts_per_side=2,
                         link_rate_bps=gbps(1), compile_traces=compile_traces)
                .tpp("monitor",
                     "PUSH [PacketMetadata:OutputPort]\n"
                     "PUSH [Switch:Clock]\n"
                     "PUSH [Queue:QueueOccupancyBytes]\n"
                     "PUSH [Link:TX-Bytes]\n"
                     "PUSH [Switch:SwitchID]",
                     filter=PacketFilter(protocol="udp"), num_hops=6)
                .workload("messages", offered_load=0.2, message_bytes=4_000))

    def test_scenario_runs_are_byte_identical_across_engines(self):
        """End-to-end differential on a real network, exercising the
        specialized SwitchMemory resolvers (metadata, clock, queue, link)."""
        payloads = {}

        def run(compile_traces):
            collected = []
            result = (self._scenario(compile_traces)
                      .collect(lambda tpp, packet:
                               collected.append((packet.src, packet.dst,
                                                 tpp.hop_number,
                                                 bytes(tpp.memory))))
                      .run(duration_s=0.05))
            payloads[compile_traces] = collected
            return result

        interp, traced = run(False), run(True)
        assert interp.events_executed == traced.events_executed
        assert interp.tpps_attached == traced.tpps_attached
        assert interp.tpps_completed == traced.tpps_completed
        assert payloads[False] == payloads[True]
        assert payloads[True], "the sweep must actually collect TPPs"
        assert traced.trace_executions > 0
        assert traced.trace_fallbacks == 0
        assert interp.trace_executions == 0

    def test_switch_constructor_and_property_toggle(self):
        switch = TPPSwitch(Simulator(), "s1", switch_id=1, compile_traces=True)
        assert switch.compile_traces and switch.tcpu.compile_traces
        switch.compile_traces = False
        assert not switch.tcpu.compile_traces

    def test_shim_reports_trace_eligibility(self):
        experiment = (self._scenario(True)
                      .tpp("verify",
                           "CEXEC [Switch:SwitchID], [Packet:Hop[0]]\n"
                           "LOAD [Link:TX-Bytes], [Packet:Hop[2]]",
                           filter=PacketFilter(protocol="tcp"), num_hops=4)
                      .build())
        shim = next(iter(experiment.stacks.values())).shim
        assert shim.traceable_filters == 1
        assert shim.untraceable_filters == 1
        ineligible = shim.trace_ineligible_programs()
        assert len(ineligible) == 1
        assert "conditional" in ineligible[0][1]
        experiment.finish()
