"""Differential tests for the TCPU's bound plan against the §3 oracle.

The bound plan (``execute_program``) must be *instruction-for-instruction*
identical to the oracle in ``tcpu_oracle.py`` — same statuses, same packet
memory, same switch-memory writes, and counters that add up to the
oracle's statuses — on every program, on a cache miss and on a cache hit.
This file holds:

* a property-style sweep running randomized valid programs through the
  plan and the oracle, each twice (on one TCPU, a miss then a hit a hop
  further along), against a dict-backed memory (the closures over
  ``read`` / ``write``) and a real switch's ``SwitchMemory`` (its
  resolvers), including a flip of the write-enable knob between the two
  runs (``REPRO_HYPOTHESIS_PROFILE=quick`` shrinks the sweep for CI's docs
  job);
* decoded wire TPPs (``wire_tpps``) through the plan and the oracle on one
  switch each, and through ``TPPSwitch.receive`` on a k=4 fat-tree, where
  the packet must be delivered or counted once in a drop ledger;
* resolver equivalence checks against a real switch's ``SwitchMemory``;
* regression tests for the cache-keying contract: a different or grown
  program, another memory, changed word size / addressing mode / hop
  size, or a flipped write-enable knob can never hit a stale plan, while
  clones of one template share one plan.
"""

import random

from hypothesis import example, given, strategies as st

import tcpu_oracle as oracle
from repro.core import addressing
from repro.core.compiler import compile_tpp
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import TPP, AddressingMode, checksum16, make_tpp
from repro.core.tcpu import _PLAN_CACHE_LIMIT, InstructionStatus, PacketContext, TCPU
from repro.net.packet import udp_packet
from repro.net.sim import Simulator
from repro.net.topology import build_fat_tree
from repro.switches.switch import TPPSwitch
from tcpu_oracle import DictMemory, MetadataMemory


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

straight_line_opcodes = st.sampled_from([Opcode.NOP, Opcode.PUSH, Opcode.POP,
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


def sweep_context():
    return PacketContext(input_port=1, output_port=2, packet_length=700,
                         arrival_time=1.5)


def align_compares(tpp, memory, context):
    """Set each CSTORE's old word and each CEXEC's mask and value in
    ``tpp``'s packet memory so that, at ``tpp``'s current hop, the compare
    succeeds on ``memory`` (random words almost never match)."""
    word_bytes = tpp.program.word_bytes
    for instruction in tpp.instructions:
        observed = memory.read(instruction.address, context)
        operand = oracle.hop_offset(tpp, instruction.packet_offset)
        if observed is None:
            continue
        if instruction.opcode is Opcode.CSTORE:
            oracle.write_word(tpp, operand, observed)                 # old
        elif instruction.opcode is Opcode.CEXEC:
            oracle.write_word(tpp, operand, -1)                       # mask
            oracle.write_word(tpp, operand + word_bytes, observed)


def run_plan_and_oracle(program, *, word_bytes, mode, num_hops, hop_number,
                        stack_pointer, fill, align, write_enabled=True,
                        flip_write=False, memory="dict"):
    """Run one program through the bound plan and the oracle.

    Each side gets one fresh ``memory`` and runs the program twice: a cache
    miss on a clone of the template, then — after flipping
    ``write_enabled`` when ``flip_write`` is set — a cache hit (a miss after
    a flip) on a second clone one hop further along.  ``fill`` seeds the
    template's packet memory; with ``align``, each CSTORE's old word and
    each CEXEC's mask and value are then set so that the first run's
    compare succeeds on the fresh memory (random words almost never match).
    Returns per side ``(runs, memory)``, with ``(statuses, tpp, context)``
    per run, and the plan's TCPU.
    """
    values_per_hop = 3                      # room for offsets 0..2, plus slack
    template = make_tpp(program, num_hops=num_hops, mode=mode,
                        word_bytes=word_bytes, values_per_hop=values_per_hop)
    rng = random.Random(fill)
    template.memory[:] = bytes(rng.randrange(256) for _ in range(len(template.memory)))
    template.hop_number = hop_number
    template.stack_pointer = stack_pointer
    if align:
        align_compares(template, MEMORIES[memory][1](), sweep_context())

    tcpu = TCPU(write_enabled=write_enabled)
    expected_state, state = MEMORIES[memory][1](), MEMORIES[memory][1]()
    expected_runs, runs = [], []
    for later in (0, 1):
        enabled = write_enabled != bool(later and flip_write)
        tcpu.write_enabled = enabled
        expected_tpp, tpp = template.clone(), template.clone()
        expected_tpp.hop_number += later
        tpp.hop_number += later
        expected_context, context = sweep_context(), sweep_context()
        expected_runs.append((oracle.execute(expected_tpp, expected_state,
                                             expected_context, enabled),
                              expected_tpp, expected_context))
        runs.append((tcpu.execute_program(tpp, state, context), tpp, context))
    assert tcpu.plan_cache_hits == (0 if flip_write else 1)
    return (expected_runs, expected_state), (runs, state), tcpu


def assert_plan_agrees(outcomes):
    (expected_runs, expected_memory), (runs, memory), tcpu = outcomes
    for expected, run in zip(expected_runs, runs):
        (expected_statuses, expected_tpp, expected_context), (statuses, tpp, context) = \
            expected, run
        assert statuses == expected_statuses
        assert tpp.memory == expected_tpp.memory
        assert tpp.stack_pointer == expected_tpp.stack_pointer
        assert tpp.hop_number == expected_tpp.hop_number
        assert context == expected_context
    assert memory_state(memory) == memory_state(expected_memory)
    assert tcpu.tpps_executed == len(expected_runs)
    assert tcpu.instructions_executed == sum(
        oracle.executed_count(statuses) for statuses, _, _ in expected_runs)


KNOBS = (st.sampled_from([2, 4]),
         st.sampled_from([AddressingMode.STACK, AddressingMode.HOP]),
         st.integers(min_value=1, max_value=6),
         st.integers(min_value=0, max_value=8),
         st.integers(min_value=0, max_value=60),
         st.integers(min_value=0, max_value=2**16),
         st.booleans())


class TestDifferentialSweep:
    """Random valid programs: the plan and the oracle must be
    indistinguishable."""

    @given(programs(straight_line_opcodes), *KNOBS)
    def test_straight_line_programs(self, program, word_bytes, mode, num_hops,
                                    hop_number, stack_pointer, fill, align):
        assert_plan_agrees(run_plan_and_oracle(
            program, word_bytes=word_bytes, mode=mode, num_hops=num_hops,
            hop_number=hop_number, stack_pointer=stack_pointer, fill=fill,
            align=align))

    # Two §3.3 outcomes random draws reach rarely: a matching CSTORE under
    # write-disable, and a CEXEC that fails with an instruction behind it.
    @example(("dict", [Instruction(Opcode.CSTORE, 0x1010, packet_offset=0)]),
             2, AddressingMode.HOP, 1, 0, 0, 0, True, False)
    @example(("dict", [Instruction(Opcode.CEXEC, 0x0000, packet_offset=0),
                       Instruction(Opcode.LOAD, 0x0001, packet_offset=2)]),
             2, AddressingMode.HOP, 1, 0, 0, 0, False, True)
    @given(memory_programs(all_opcodes), *KNOBS, st.booleans())
    def test_any_program_any_knobs(self, kind_program, word_bytes, mode, num_hops,
                                   hop_number, stack_pointer, fill, align,
                                   write_enabled):
        """Conditionals and write-disable included, against a dict-backed
        memory and a real switch's memory map."""
        kind, program = kind_program
        assert_plan_agrees(run_plan_and_oracle(
            program, word_bytes=word_bytes, mode=mode, num_hops=num_hops,
            hop_number=hop_number, stack_pointer=stack_pointer, fill=fill,
            align=align, write_enabled=write_enabled, memory=kind))

    @given(memory_programs(all_opcodes), *KNOBS, st.booleans())
    def test_write_enabled_flip_between_runs(self, kind_program, word_bytes, mode,
                                             num_hops, hop_number, stack_pointer,
                                             fill, align, write_enabled):
        """Plans bake the knob in: the second run, after the flip, must
        behave as the oracle does under the new setting."""
        kind, program = kind_program
        assert_plan_agrees(run_plan_and_oracle(
            program, word_bytes=word_bytes, mode=mode, num_hops=num_hops,
            hop_number=hop_number, stack_pointer=stack_pointer, fill=fill,
            align=align, write_enabled=write_enabled, flip_write=True, memory=kind))


@st.composite
def wire_tpps(draw):
    """Encoded TPPs that decode — valid checksum, at most 5 instructions,
    at most 200 bytes of packet memory.  With ``anywhere``, every other
    header and body byte is free: any hop number and stack pointer up to
    255 (far past the end of memory), any hop size, any opcode, address and
    packet offset.  Without it (the value hypothesis leans to), compares
    are likelier, addresses are the pool's mapped ones, each instruction's
    operand has words of its own, and the hop number and hop size are
    small and the memory long enough that every operand lies inside it,
    where a compare can match."""
    anywhere = draw(st.booleans())
    if anywhere:
        opcodes = st.integers(0, 6)
        addresses = st.one_of(st.sampled_from(SWITCH_ADDRESSES), st.integers(0, 0xFFFF))
        hops, hop_sizes = st.integers(0, 255), st.integers(1, 255)
    else:
        opcodes = st.one_of(st.sampled_from([Opcode.CSTORE, Opcode.CEXEC]), st.integers(0, 6))
        addresses = st.sampled_from(SWITCH_ADDRESSES[:-1])           # the mapped ones
        hops, hop_sizes = st.integers(0, 3), st.integers(1, 8)
    mode, word_code = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    instructions = b"".join(
        bytes((draw(opcodes) << 4 | draw(st.integers(0, 15)),
               *draw(addresses).to_bytes(2, "big"),
               draw(st.integers(0, 255)) if anywhere else 3 * i + draw(st.integers(0, 1))))
        for i in range(draw(st.integers(0 if anywhere else 1, 5))))
    # Inside: an operand ends by word 15 (120 bytes at 8-byte words), plus 3 hops of 8.
    memory = draw(st.binary(min_size=0 if anywhere else 144, max_size=200))
    body = instructions + memory
    check = checksum16(body)
    header = bytes((draw(st.integers(0, 15)) << 4 | mode << 2 | word_code,
                    len(instructions) // 4, len(memory) >> 8, len(memory) & 0xFF,
                    draw(hops),                                     # hop number
                    draw(st.integers(0, 255)),                      # stack pointer
                    draw(hop_sizes) if mode else draw(st.integers(0, 255)),  # hop size
                    draw(st.integers(0, 2)),                        # encapsulation
                    check >> 8, check & 0xFF,
                    *draw(st.integers(0, 0xFFFF)).to_bytes(2, "big")))
    return header + body


def decoded_context(tpp):
    return PacketContext(1, 2, 0, 3, 1, 0, tpp.hop_number, 9, 700, 1.5)


class TestDecodedAbsurdTPPs:
    """Whatever decodes, a switch executes: every outcome is a named
    ``InstructionStatus``, the bound plan agrees with the oracle, and
    nothing raises (§3.3's graceful failure).  Write-enable is drawn, and
    with ``align`` the first hop's compares match the fresh switch."""

    # A matching CSTORE on a writable register under write-disable: the
    # smallest case, kept although ``wire_tpps`` now reaches it unaided.
    @example(make_tpp([Instruction(Opcode.CSTORE, addressing.resolve("[Stage$1:Reg3]"),
                                   packet_offset=0)],
                      num_hops=1, mode=AddressingMode.HOP, values_per_hop=2).encode(),
             (False, True))
    # (write_enabled, align), write-disabled and aligned first: hypothesis
    # leans to a strategy's first value, so that pair is drawn often.
    @given(wire_tpps(), st.sampled_from([(False, True), (False, False),
                                         (True, True), (True, False)]))
    def test_bound_plan_matches_the_oracle_on_a_switch(self, data, knobs):
        write_enabled, align = knobs
        template = TPP.decode(data)
        if align:
            align_compares(template, fresh_switch().memory, decoded_context(template))
        reference_switch, switch = fresh_switch(), fresh_switch()
        switch.tcpu.write_enabled = write_enabled
        executed = 0
        for later in (0, 1):       # two clones of one program: a miss, then hits
            reference, subject = TPP.decode(data), template.clone()
            reference.memory[:] = template.memory
            assert subject.program is template.program
            reference.hop_number += later
            subject.hop_number += later
            for _ in range(2):     # each clone a hop on, over what its last hop wrote
                reference_context, context = decoded_context(reference), \
                    decoded_context(subject)
                expected = oracle.execute(reference, reference_switch.memory,
                                          reference_context, write_enabled)
                got = switch.tcpu.execute_program(subject, switch.memory, context)
                assert len(got) == len(subject.instructions)
                assert all(isinstance(status, InstructionStatus) for status in got)
                assert got == expected
                assert subject == reference
                assert context == reference_context
                executed += oracle.executed_count(expected)
                reference.advance_hop()
                subject.advance_hop()
        assert (switch.tcpu.plan_cache_misses, switch.tcpu.plan_cache_hits) == (1, 3)
        assert memory_state(switch.memory) == memory_state(reference_switch.memory)
        assert switch.tcpu.instructions_executed == executed


class TestDecodedTPPsOnAFatTree:
    """The wire fuzz, switch side: a decoded TPP rides a cross-pod UDP
    packet through ``TPPSwitch.receive`` on a k=4 fat-tree, optionally
    reflected (§4.4) at a drawn switch.  Whatever the program does, nothing
    raises, the packet is delivered or counted once in a drop ledger, and
    every switch that saw it ran it exactly once."""

    @given(wire_tpps(), st.one_of(st.none(), st.integers(1, 20)))
    def test_packet_is_delivered_or_counted_once(self, data, reflect_switch):
        sim = Simulator()
        net = build_fat_tree(sim, k=4)
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


class TestCacheKeying:
    """A TPP with a different program must never hit a stale plan."""

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

    def test_grown_program_misses_plan_cache(self):
        a = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU()
        tpp = compile_tpp("PUSH [Switch:SwitchID]").tpp
        memory = DictMemory({a: 1})
        tcpu.execute_program(tpp, memory, PacketContext())
        grown = TPP([*tpp.instructions, Instruction(Opcode.PUSH, a)],
                    bytearray(len(tpp.memory)))
        memory.values[a] = 2
        statuses = tcpu.execute_program(grown, memory, PacketContext())
        assert len(statuses) == 2
        assert grown.pushed_words() == [2, 2]
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (2, 0)

    def test_clones_of_one_template_share_one_plan(self):
        a = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU()
        memory = DictMemory({a: 1})
        template = compile_tpp("PUSH [Switch:SwitchID]").tpp
        for _ in range(5):
            clone = template.clone()
            tcpu.execute_program(clone, memory, PacketContext())
            assert clone.pushed_words() == [1]
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (1, 4)
        assert len(tcpu._plan_cache) == 1

    def test_another_memory_misses_plan_cache(self):
        a = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU()
        template = compile_tpp("PUSH [Switch:SwitchID]").tpp
        for value in (3, 4):
            clone = template.clone()
            tcpu.execute_program(clone, DictMemory({a: value}), PacketContext())
            assert clone.pushed_words() == [value]    # a stale plan reads 3
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (2, 0)

    def test_word_bytes_change_rebinds(self):
        address = addressing.resolve("[PacketMetadata:ArrivalTimestamp]")
        program = [Instruction(Opcode.PUSH, address)]
        context = PacketContext(arrival_time=1.0)       # 1e6 us = 0xF4240
        tcpu = TCPU()
        memory = MetadataMemory()
        for word_bytes, expected in ((2, 0xF4240 & 0xFFFF), (4, 0xF4240)):
            tpp = make_tpp(program, num_hops=1, word_bytes=word_bytes)
            tcpu.execute_program(tpp, memory, context)
            assert tpp.pushed_words() == [expected]
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (2, 0)

    def test_mode_and_hop_size_are_part_of_the_plan_key(self):
        memory = DictMemory({0x0000: 0xAA, 0x0001: 0xBB})
        program = [Instruction(Opcode.LOAD, 0x0000, packet_offset=0),
                   Instruction(Opcode.LOAD, 0x0001, packet_offset=1)]
        tcpu = TCPU()

        hop = make_tpp(program, num_hops=3, mode=AddressingMode.HOP,
                       values_per_hop=2)
        hop.hop_number = 2
        tcpu.execute_program(hop, memory, PacketContext())
        assert hop.read_hop_word(0, hop=2) == 0xAA      # wrote hop 2's slice
        assert hop.read_hop_word(0, hop=0) == 0

        # Same instruction objects, a wider hop: hop 2 starts further on.
        wide = make_tpp(program, num_hops=3, mode=AddressingMode.HOP,
                        values_per_hop=3)
        wide.hop_number = 2
        tcpu.execute_program(wide, memory, PacketContext())
        assert oracle.read_word(wide, 2 * wide.hop_size) == 0xAA
        assert wide.read_hop_word(1, hop=2) == 0xBB

        # Same instruction objects, stack mode: absolute offsets 0 and 1.
        stack = make_tpp(program, num_hops=3, mode=AddressingMode.STACK,
                         values_per_hop=2)
        stack.hop_number = 2
        tcpu.execute_program(stack, memory, PacketContext())
        assert oracle.read_word(stack, 0) == 0xAA       # absolute word 0
        assert oracle.read_word(stack, 2) == 0xBB
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (3, 0)

    def test_write_enabled_flip_rebinds_plans(self):
        store = [Instruction(Opcode.STORE, 0x1010, packet_offset=0)]
        tcpu = TCPU()
        memory = DictMemory(PRESENT, READ_ONLY)
        template = make_tpp(store, num_hops=1, mode=AddressingMode.HOP,
                            initial_values=[55])

        def run():
            memory.values[0x1010] = 0
            return tcpu.execute_program(template.clone(), memory, PacketContext())

        assert run() == [InstructionStatus.EXECUTED]
        assert memory.values[0x1010] == 55

        tcpu.write_enabled = False
        assert run() == [InstructionStatus.SKIPPED_WRITE_DISABLED]
        assert memory.values[0x1010] == 0

        tcpu.write_enabled = True
        assert run() == [InstructionStatus.EXECUTED]
        assert memory.values[0x1010] == 55
        # Each flip dropped the plan; an unflipped rerun hits.
        run()
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (3, 1)

    def test_plan_cache_is_bounded(self):
        tcpu = TCPU()
        memory = DictMemory(PRESENT)
        for address in range(_PLAN_CACHE_LIMIT + 10):
            tpp = make_tpp([Instruction(Opcode.PUSH, address)], num_hops=1)
            tcpu.execute_program(tpp, memory, PacketContext())
        assert len(tcpu._plan_cache) == _PLAN_CACHE_LIMIT
        assert tcpu.plan_cache_misses == _PLAN_CACHE_LIMIT + 10
