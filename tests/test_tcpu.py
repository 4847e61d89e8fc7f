"""Tests for the TCPU execution engine semantics (§3.2, §3.3).

Every hop here runs through the product's bound plan
(``TCPU.execute_program``) and, on copies of the same TPP, memory and
context, through the oracle in ``tcpu_oracle.py``; the two must agree
before a test checks anything else.
"""

import copy

import tcpu_oracle as oracle
from repro.core import tcpu
from repro.core.compiler import compile_tpp
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import AddressingMode, make_tpp
from repro.core.tcpu import InstructionStatus, PacketContext, TCPU
from tcpu_oracle import DictMemory, MetadataMemory, metadata_word


def product_and_oracle(tpp, memory, context=None, write_enabled=True):
    """One hop of ``tpp`` through a fresh TCPU's bound plan and, on copies,
    through the oracle: ``(statuses, tpp, memory, context)`` for each."""
    context = context or PacketContext()
    expected = (tpp.clone(), copy.deepcopy(memory), copy.copy(context))
    statuses = TCPU(write_enabled=write_enabled).execute_program(tpp, memory, context)
    return ((statuses, tpp, memory, context),
            (oracle.execute(*expected, write_enabled=write_enabled), *expected))


def observable(outcome):
    """What a hop leaves behind: statuses, packet memory, stack pointer,
    switch memory and context."""
    statuses, tpp, memory, context = outcome
    return (statuses, tpp.memory, tpp.stack_pointer,
            getattr(memory, "values", None), context)


def execute(tpp, memory, context=None, write_enabled=True):
    """Run one hop of ``tpp``; the bound plan must agree with the oracle.
    Returns the hop's statuses."""
    got, expected = product_and_oracle(tpp, memory, context, write_enabled)
    assert observable(got) == observable(expected)
    return got[0]


def halted(statuses):
    return InstructionStatus.FAILED_CONDITION in statuses


def packet_full(statuses):
    return InstructionStatus.SKIPPED_PACKET_FULL in statuses


def run(source_or_instructions, memory, context=None, write_enabled=True, **kwargs):
    if isinstance(source_or_instructions, str):
        tpp = compile_tpp(source_or_instructions, **kwargs).tpp
    else:
        tpp = make_tpp(source_or_instructions, **kwargs)
    return tpp, execute(tpp, memory, context, write_enabled)


class TestPushPop:
    def test_push_copies_switch_value_into_packet(self):
        from repro.core import addressing
        address = addressing.resolve("[Switch:SwitchID]")
        tpp, statuses = run("PUSH [Switch:SwitchID]", DictMemory({address: 7}))
        assert tpp.pushed_words() == [7]
        assert statuses == [InstructionStatus.EXECUTED]

    def test_push_missing_memory_fails_gracefully(self):
        tpp, statuses = run("PUSH [Switch:SwitchID]", DictMemory({}))
        assert tpp.pushed_words() == []
        assert statuses == [InstructionStatus.SKIPPED_NO_MEMORY]
        assert not halted(statuses)    # the TPP keeps being forwarded

    def test_push_order_preserved_in_packet_memory(self):
        from repro.core import addressing
        a = addressing.resolve("[Switch:SwitchID]")
        b = addressing.resolve("[Switch:VersionNumber]")
        tpp, _ = run("PUSH [Switch:SwitchID]\nPUSH [Switch:VersionNumber]",
                     DictMemory({a: 1, b: 2}))
        assert tpp.pushed_words() == [1, 2]

    def test_pop_writes_packet_value_to_switch(self):
        from repro.core import addressing
        address = addressing.resolve("[Link:AppSpecific_0]")
        memory = DictMemory({address: 0})
        tpp = compile_tpp("POP [Link:AppSpecific_0]", initial_values=[55], num_hops=1).tpp
        execute(tpp, memory)
        assert memory.values[address] == 55

    def test_pop_with_exhausted_memory_skips(self):
        tpp = make_tpp([Instruction(Opcode.POP, 0x1010)], num_hops=1)
        tpp.stack_pointer = len(tpp.memory)
        statuses = execute(tpp, DictMemory({0x1010: 0}))
        assert statuses == [InstructionStatus.SKIPPED_PACKET_FULL]
        assert packet_full(statuses)


class TestLoadStore:
    def test_load_into_hop_slot(self):
        memory = DictMemory({0x0000: 99})
        instructions = [Instruction(Opcode.LOAD, 0x0000, packet_offset=1)]
        tpp, _ = run(instructions, memory, num_hops=2, mode=AddressingMode.HOP,
                     values_per_hop=2)
        assert tpp.read_hop_word(1, hop=0) == 99

    def test_load_uses_current_hop_slice(self):
        memory = DictMemory({0x0000: 5})
        instructions = [Instruction(Opcode.LOAD, 0x0000, packet_offset=0)]
        tpp = make_tpp(instructions, num_hops=3, mode=AddressingMode.HOP)
        tpp.hop_number = 2
        execute(tpp, memory)
        assert tpp.read_hop_word(0, hop=2) == 5
        assert tpp.read_hop_word(0, hop=0) == 0

    def test_store_reads_packet_word(self):
        memory = DictMemory({0x1010: 0})
        tpp = make_tpp([Instruction(Opcode.STORE, 0x1010, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[123])
        execute(tpp, memory)
        assert memory.values[0x1010] == 123

    def test_store_to_read_only_address_fails_gracefully(self):
        memory = DictMemory({0x0000: 1}, read_only={0x0000})
        tpp = make_tpp([Instruction(Opcode.STORE, 0x0000, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[9])
        statuses = execute(tpp, memory)
        assert statuses == [InstructionStatus.SKIPPED_NO_MEMORY]
        assert memory.values[0x0000] == 1


class TestWriteDisable:
    def test_writes_skipped_when_disabled(self):
        memory = DictMemory({0x1010: 1})
        tpp = make_tpp([Instruction(Opcode.STORE, 0x1010, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[9])
        statuses = execute(tpp, memory, write_enabled=False)
        assert statuses == [InstructionStatus.SKIPPED_WRITE_DISABLED]
        assert memory.values[0x1010] == 1

    def test_reads_still_execute_when_writes_disabled(self):
        from repro.core import addressing
        address = addressing.resolve("[Switch:SwitchID]")
        tpp, statuses = run("PUSH [Switch:SwitchID]", DictMemory({address: 3}),
                          write_enabled=False)
        assert tpp.pushed_words() == [3]


class TestCStore:
    def _cstore_tpp(self, old, new):
        return make_tpp([Instruction(Opcode.CSTORE, 0x1010, packet_offset=0),
                         Instruction(Opcode.STORE, 0x1011, packet_offset=2)],
                        num_hops=1, mode=AddressingMode.HOP, values_per_hop=3,
                        initial_values=[old, new, 777])

    def test_successful_compare_and_swap(self):
        memory = DictMemory({0x1010: 10, 0x1011: 0})
        tpp = self._cstore_tpp(old=10, new=11)
        statuses = execute(tpp, memory)
        assert memory.values[0x1010] == 11
        assert memory.values[0x1011] == 777          # subsequent STORE executed
        assert not halted(statuses)
        assert tpp.read_hop_word(0) == 11             # observed value written back

    def test_failed_compare_halts_subsequent_instructions(self):
        memory = DictMemory({0x1010: 99, 0x1011: 0})
        tpp = self._cstore_tpp(old=10, new=11)
        statuses = execute(tpp, memory)
        assert memory.values[0x1010] == 99            # unchanged
        assert memory.values[0x1011] == 0             # STORE never ran
        assert halted(statuses)
        assert statuses[1] is InstructionStatus.SKIPPED_HALTED
        assert tpp.read_hop_word(0) == 99             # end-host can see the failure

    def test_missing_address_fails_condition(self):
        memory = DictMemory({})
        tpp = self._cstore_tpp(old=0, new=1)
        statuses = execute(tpp, memory)
        assert halted(statuses)


class TestCExec:
    def _cexec_tpp(self, mask, value):
        return make_tpp([Instruction(Opcode.CEXEC, 0x0000, packet_offset=0),
                         Instruction(Opcode.LOAD, 0x0004, packet_offset=2)],
                        num_hops=1, mode=AddressingMode.HOP, values_per_hop=3,
                        initial_values=[mask, value, 0])

    def test_matching_predicate_lets_execution_continue(self):
        memory = DictMemory({0x0000: 0x0042, 0x0004: 1234})
        tpp = self._cexec_tpp(mask=0xFFFF, value=0x0042)
        statuses = execute(tpp, memory)
        assert not halted(statuses)
        assert tpp.read_hop_word(2) == 1234

    def test_non_matching_predicate_halts(self):
        memory = DictMemory({0x0000: 0x0042, 0x0004: 1234})
        tpp = self._cexec_tpp(mask=0xFFFF, value=0x0041)
        statuses = execute(tpp, memory)
        assert halted(statuses)
        assert tpp.read_hop_word(2) == 0

    def test_mask_is_applied(self):
        memory = DictMemory({0x0000: 0x1242, 0x0004: 1})
        tpp = self._cexec_tpp(mask=0x00FF, value=0x0042)
        statuses = execute(tpp, memory)
        assert not halted(statuses)


class TestPacketFullStatus:
    """§3.3 graceful failure: 'packet ran out of room' is distinct from
    'switch lacks the address'."""

    def test_push_onto_full_stack_reports_packet_full(self):
        from repro.core import addressing
        address = addressing.resolve("[Switch:SwitchID]")
        tpp = make_tpp([Instruction(Opcode.PUSH, address)], num_hops=1)
        tpp.stack_pointer = len(tpp.memory)     # no room left
        statuses = execute(tpp, DictMemory({address: 7}))
        assert statuses == [InstructionStatus.SKIPPED_PACKET_FULL]
        assert packet_full(statuses)
        assert not halted(statuses)                # still forwarded gracefully

    def test_push_missing_address_still_reports_no_memory(self):
        tpp, statuses = run("PUSH [Switch:SwitchID]", DictMemory({}))
        assert statuses == [InstructionStatus.SKIPPED_NO_MEMORY]
        assert not packet_full(statuses)

    def test_load_past_per_hop_memory_reports_packet_full(self):
        memory = DictMemory({0x0000: 9})
        instructions = [Instruction(Opcode.LOAD, 0x0000, packet_offset=0)]
        tpp = make_tpp(instructions, num_hops=2, mode=AddressingMode.HOP)
        tpp.hop_number = 5                       # past the 2 preallocated hops
        statuses = execute(tpp, memory)
        assert statuses == [InstructionStatus.SKIPPED_PACKET_FULL]

    def test_store_past_per_hop_memory_reports_packet_full(self):
        memory = DictMemory({0x1010: 0})
        tpp = make_tpp([Instruction(Opcode.STORE, 0x1010, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[5])
        tpp.hop_number = 3
        statuses = execute(tpp, memory)
        assert statuses == [InstructionStatus.SKIPPED_PACKET_FULL]
        assert memory.values[0x1010] == 0        # nothing written


class TestWriteDisabledConditionals:
    """§3.3.3: even a suppressed CSTORE must leave the observed value in the
    packet; CEXEC has no store half and keeps gating."""

    def _cstore_tpp(self, old, new):
        return make_tpp([Instruction(Opcode.CSTORE, 0x1010, packet_offset=0),
                         Instruction(Opcode.STORE, 0x1011, packet_offset=2)],
                        num_hops=1, mode=AddressingMode.HOP, values_per_hop=3,
                        initial_values=[old, new, 777])

    def test_cstore_suppressed_but_observed_value_written_back(self):
        memory = DictMemory({0x1010: 10, 0x1011: 0})
        tpp = self._cstore_tpp(old=10, new=11)
        statuses = execute(tpp, memory, write_enabled=False)
        assert statuses[0] is InstructionStatus.SKIPPED_WRITE_DISABLED
        assert memory.values[0x1010] == 10       # swap suppressed
        assert tpp.read_hop_word(0) == 10        # observed value written back
        assert memory.values[0x1011] == 0        # nothing written to the switch

    def test_cstore_mismatch_with_writes_disabled_still_halts(self):
        memory = DictMemory({0x1010: 99, 0x1011: 0})
        tpp = self._cstore_tpp(old=10, new=11)
        statuses = execute(tpp, memory, write_enabled=False)
        assert halted(statuses)
        assert tpp.read_hop_word(0) == 99        # observed value written back
        assert statuses[1] is InstructionStatus.SKIPPED_HALTED

    def test_cexec_still_gates_when_writes_disabled(self):
        cexec = [Instruction(Opcode.CEXEC, 0x0000, packet_offset=0),
                 Instruction(Opcode.LOAD, 0x0004, packet_offset=2)]
        # Matching predicate: execution continues to the LOAD.
        memory = DictMemory({0x0000: 0x42, 0x0004: 1234})
        tpp = make_tpp(cexec, num_hops=1, mode=AddressingMode.HOP,
                       values_per_hop=3, initial_values=[0xFFFF, 0x42, 0])
        statuses = execute(tpp, memory, write_enabled=False)
        assert not halted(statuses)
        assert tpp.read_hop_word(2) == 1234
        # Non-matching predicate: halts exactly as with writes enabled.
        tpp2 = make_tpp(cexec, num_hops=1, mode=AddressingMode.HOP,
                        values_per_hop=3, initial_values=[0xFFFF, 0x41, 0])
        statuses2 = execute(tpp2, memory, write_enabled=False)
        assert halted(statuses2)


class TestMetadataWordMask:
    def test_timestamp_masked_to_tpp_word_size(self):
        from repro.core import addressing
        address = addressing.resolve("[PacketMetadata:ArrivalTimestamp]")
        context = PacketContext(arrival_time=1.0)        # 1e6 us = 0xF4240
        for word_bytes, expected in ((2, 0xF4240 & 0xFFFF), (4, 0xF4240)):
            tpp = make_tpp([Instruction(Opcode.PUSH, address)],
                           num_hops=1, word_bytes=word_bytes)
            execute(tpp, MetadataMemory(), context)
            assert tpp.pushed_words() == [expected]

    def test_load_masks_to_word_size_too(self):
        from repro.core import addressing
        address = addressing.resolve("[PacketMetadata:ArrivalTimestamp]")
        context = PacketContext(arrival_time=1.0)
        tpp = make_tpp([Instruction(Opcode.LOAD, address, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, word_bytes=2)
        execute(tpp, MetadataMemory(), context)
        assert tpp.read_hop_word(0) == 0xF4240 & 0xFFFF


class TestExecuteProgramFastPath:
    def test_results_identical_to_the_oracle(self):
        from repro.core import addressing
        a = addressing.resolve("[Switch:SwitchID]")
        b = addressing.resolve("[Switch:VersionNumber]")
        source = "PUSH [Switch:SwitchID]\nPUSH [Switch:VersionNumber]"
        expected_tpp = compile_tpp(source).tpp
        fast_tpp = compile_tpp(source).tpp
        expected = oracle.execute(expected_tpp, DictMemory({a: 5, b: 9}), PacketContext())
        fast = TCPU().execute_program(fast_tpp, DictMemory({a: 5, b: 9}), PacketContext())
        assert expected == fast
        assert expected_tpp.pushed_words() == fast_tpp.pushed_words() == [5, 9]

    def test_clones_share_one_cached_plan(self):
        from repro.core import addressing
        a = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU()
        memory = DictMemory({a: 1})
        template = compile_tpp("PUSH [Switch:SwitchID]").tpp
        for _ in range(5):
            tcpu.execute_program(template.clone(), memory, PacketContext())
        assert len(tcpu._plan_cache) == 1
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (1, 4)
        assert tcpu.tpps_executed == 5

    def test_write_disable_flip_drops_cached_plans(self):
        # A bound plan bakes the knob in, so only a real flip clears it, and
        # the next plan honours the new setting.
        memory = DictMemory({0x1010: 1})
        template = make_tpp([Instruction(Opcode.STORE, 0x1010, packet_offset=0)],
                            num_hops=1, mode=AddressingMode.HOP, initial_values=[9])
        tcpu = TCPU()
        assert tcpu.write_enabled is True
        assert tcpu.execute_program(template.clone(), memory, PacketContext()) \
            == [InstructionStatus.EXECUTED]
        assert memory.values[0x1010] == 9
        tcpu.write_enabled = True
        assert len(tcpu._plan_cache) == 1
        tcpu.write_enabled = False
        assert tcpu.write_enabled is False and len(tcpu._plan_cache) == 0
        memory.values[0x1010] = 1
        assert tcpu.execute_program(template.clone(), memory, PacketContext()) \
            == [InstructionStatus.SKIPPED_WRITE_DISABLED]
        assert memory.values[0x1010] == 1
        assert tcpu.plan_cache_misses == 2

    def test_each_memory_gets_its_own_pinned_plan(self):
        """A plan is bound to one memory's rows, so a second memory object
        misses; and the entry keeps its memory alive, so the ``id(memory)``
        in its key can never be reused by another object."""
        import gc
        import weakref
        from repro.core import addressing
        a = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU()
        template = compile_tpp("PUSH [Switch:SwitchID]").tpp
        first, second = DictMemory({a: 1}), DictMemory({a: 2})
        pushed = []
        for memory in (first, second, first, second):
            tpp = template.clone()
            tcpu.execute_program(tpp, memory, PacketContext())
            pushed.extend(tpp.pushed_words())
        assert pushed == [1, 2, 1, 2]
        assert (tcpu.plan_cache_misses, tcpu.plan_cache_hits) == (2, 2)
        assert {key[1] for key in tcpu._plan_cache} == {id(first), id(second)}

        pinned = weakref.ref(second)
        del second, memory
        gc.collect()
        assert pinned() is not None
        assert any(entry[-1] is pinned() for entry in tcpu._plan_cache.values())


class TestPacketContext:
    def test_metadata_words(self):
        context = PacketContext(input_port=2, output_port=5, output_queue=1,
                                matched_entry_id=77, matched_entry_version=3,
                                matched_stage=1, hop_number=4, path_id=9,
                                packet_length=1500, arrival_time=1.5)
        assert metadata_word(context, 0) == 2
        assert metadata_word(context, 1) == 5
        assert metadata_word(context, 3) == 77
        assert metadata_word(context, 7) == 9
        assert metadata_word(context, 8) == 1500
        assert metadata_word(context, 42) is None


class TestAccounting:
    def test_executed_counts(self):
        from repro.core import addressing
        address = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU()
        tpp = compile_tpp("PUSH [Switch:SwitchID]\nPUSH [Switch:VersionNumber]").tpp
        tcpu.execute_program(tpp, DictMemory({address: 1}), PacketContext())
        assert tcpu.tpps_executed == 1
        assert tcpu.instructions_executed == 1   # the second PUSH found no memory


class TestOracleCatchesMutants:
    """The differential is only as good as the oracle's eye: a bound plan
    broken in either of two §3.3 ways must disagree with it on a fixed
    program, while the unbroken plan agrees."""

    @staticmethod
    def _disagrees(monkeypatch, mutant, tpp, memory, write_enabled):
        got, expected = product_and_oracle(tpp.clone(), copy.deepcopy(memory),
                                           write_enabled=write_enabled)
        assert observable(got) == observable(expected)
        monkeypatch.setattr(tcpu, "_bind_step", mutant)
        got, expected = product_and_oracle(tpp.clone(), copy.deepcopy(memory),
                                           write_enabled=write_enabled)
        assert got[0] != expected[0]
        return got, expected

    def test_cstore_that_stores_while_write_disabled(self, monkeypatch):
        bind_step = tcpu._bind_step

        def mutant(instruction, *args):
            if instruction.opcode is Opcode.CSTORE:
                args = (*args[:-1], True)             # ignores write_enabled
            return bind_step(instruction, *args)

        tpp = make_tpp([Instruction(Opcode.CSTORE, 0x1010, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, values_per_hop=2,
                       initial_values=[10, 11])
        got, expected = self._disagrees(monkeypatch, mutant, tpp,
                                        DictMemory({0x1010: 10}), write_enabled=False)
        assert (got[2].values, expected[2].values) == ({0x1010: 11}, {0x1010: 10})

    def test_cexec_whose_failure_does_not_halt(self, monkeypatch):
        bind_step = tcpu._bind_step

        def mutant(instruction, *args):
            step = bind_step(instruction, *args)
            if instruction.opcode is not Opcode.CEXEC:
                return step

            def cexec(tpp, context):                  # a failure becomes a skip
                status = step(tpp, context)
                return (InstructionStatus.SKIPPED_NO_MEMORY
                        if status is InstructionStatus.FAILED_CONDITION else status)
            return cexec

        tpp = make_tpp([Instruction(Opcode.CEXEC, 0x0000, packet_offset=0),
                        Instruction(Opcode.LOAD, 0x0004, packet_offset=2)],
                       num_hops=1, mode=AddressingMode.HOP, values_per_hop=3,
                       initial_values=[0xFFFF, 0x41, 0])
        got, expected = self._disagrees(monkeypatch, mutant, tpp,
                                        DictMemory({0x0000: 0x42, 0x0004: 1234}),
                                        write_enabled=True)
        assert expected[0] == [InstructionStatus.FAILED_CONDITION,
                               InstructionStatus.SKIPPED_HALTED]
        assert (got[1].read_hop_word(2), expected[1].read_hop_word(2)) == (1234, 0)
