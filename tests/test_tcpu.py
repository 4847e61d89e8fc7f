"""Tests for the TCPU execution engine semantics (§3.2, §3.3)."""

from typing import Optional

import pytest

from repro.core.compiler import compile_tpp
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import AddressingMode, make_tpp
from repro.core.tcpu import InstructionStatus, PacketContext, TCPU


class DictMemory:
    """A simple MemoryInterface backed by a dict (plus read-only addresses)."""

    def __init__(self, values: Optional[dict] = None, read_only: Optional[set] = None):
        self.values = dict(values or {})
        self.read_only = set(read_only or ())
        self.reads = []
        self.writes = []

    def read(self, address, context):
        self.reads.append(address)
        return self.values.get(address)

    def write(self, address, value, context):
        self.writes.append((address, value))
        if address in self.read_only or address not in self.values:
            return False
        self.values[address] = value
        return True


def run(source_or_instructions, memory, context=None, write_enabled=True, **kwargs):
    if isinstance(source_or_instructions, str):
        tpp = compile_tpp(source_or_instructions, **kwargs).tpp
    else:
        tpp = make_tpp(source_or_instructions, **kwargs)
    result = TCPU(write_enabled=write_enabled).execute(tpp, memory,
                                                       context or PacketContext())
    return tpp, result


class TestPushPop:
    def test_push_copies_switch_value_into_packet(self):
        from repro.core import addressing
        address = addressing.resolve("[Switch:SwitchID]")
        tpp, result = run("PUSH [Switch:SwitchID]", DictMemory({address: 7}))
        assert tpp.pushed_words() == [7]
        assert result.statuses == [InstructionStatus.EXECUTED]

    def test_push_missing_memory_fails_gracefully(self):
        tpp, result = run("PUSH [Switch:SwitchID]", DictMemory({}))
        assert tpp.pushed_words() == []
        assert result.statuses == [InstructionStatus.SKIPPED_NO_MEMORY]
        assert not result.halted    # the TPP keeps being forwarded

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
        TCPU().execute(tpp, memory, PacketContext())
        assert memory.values[address] == 55

    def test_pop_with_exhausted_memory_skips(self):
        tpp = make_tpp([Instruction(Opcode.POP, 0x1010)], num_hops=1)
        tpp.stack_pointer = len(tpp.memory)
        result = TCPU().execute(tpp, DictMemory({0x1010: 0}), PacketContext())
        assert result.statuses == [InstructionStatus.SKIPPED_PACKET_FULL]
        assert result.packet_full


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
        TCPU().execute(tpp, memory, PacketContext())
        assert tpp.read_hop_word(0, hop=2) == 5
        assert tpp.read_hop_word(0, hop=0) == 0

    def test_store_reads_packet_word(self):
        memory = DictMemory({0x1010: 0})
        tpp = make_tpp([Instruction(Opcode.STORE, 0x1010, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[123])
        TCPU().execute(tpp, memory, PacketContext())
        assert memory.values[0x1010] == 123

    def test_store_to_read_only_address_fails_gracefully(self):
        memory = DictMemory({0x0000: 1}, read_only={0x0000})
        tpp = make_tpp([Instruction(Opcode.STORE, 0x0000, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[9])
        result = TCPU().execute(tpp, memory, PacketContext())
        assert result.statuses == [InstructionStatus.SKIPPED_NO_MEMORY]
        assert memory.values[0x0000] == 1


class TestWriteDisable:
    def test_writes_skipped_when_disabled(self):
        memory = DictMemory({0x1010: 1})
        tpp = make_tpp([Instruction(Opcode.STORE, 0x1010, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[9])
        result = TCPU(write_enabled=False).execute(tpp, memory, PacketContext())
        assert result.statuses == [InstructionStatus.SKIPPED_WRITE_DISABLED]
        assert memory.values[0x1010] == 1

    def test_reads_still_execute_when_writes_disabled(self):
        from repro.core import addressing
        address = addressing.resolve("[Switch:SwitchID]")
        tpp, result = run("PUSH [Switch:SwitchID]", DictMemory({address: 3}),
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
        result = TCPU().execute(tpp, memory, PacketContext())
        assert memory.values[0x1010] == 11
        assert memory.values[0x1011] == 777          # subsequent STORE executed
        assert not result.halted
        assert tpp.read_hop_word(0) == 11             # observed value written back

    def test_failed_compare_halts_subsequent_instructions(self):
        memory = DictMemory({0x1010: 99, 0x1011: 0})
        tpp = self._cstore_tpp(old=10, new=11)
        result = TCPU().execute(tpp, memory, PacketContext())
        assert memory.values[0x1010] == 99            # unchanged
        assert memory.values[0x1011] == 0             # STORE never ran
        assert result.halted
        assert result.statuses[1] is InstructionStatus.SKIPPED_HALTED
        assert tpp.read_hop_word(0) == 99             # end-host can see the failure

    def test_missing_address_fails_condition(self):
        memory = DictMemory({})
        tpp = self._cstore_tpp(old=0, new=1)
        result = TCPU().execute(tpp, memory, PacketContext())
        assert result.halted


class TestCExec:
    def _cexec_tpp(self, mask, value):
        return make_tpp([Instruction(Opcode.CEXEC, 0x0000, packet_offset=0),
                         Instruction(Opcode.LOAD, 0x0004, packet_offset=2)],
                        num_hops=1, mode=AddressingMode.HOP, values_per_hop=3,
                        initial_values=[mask, value, 0])

    def test_matching_predicate_lets_execution_continue(self):
        memory = DictMemory({0x0000: 0x0042, 0x0004: 1234})
        tpp = self._cexec_tpp(mask=0xFFFF, value=0x0042)
        result = TCPU().execute(tpp, memory, PacketContext())
        assert not result.halted
        assert tpp.read_hop_word(2) == 1234

    def test_non_matching_predicate_halts(self):
        memory = DictMemory({0x0000: 0x0042, 0x0004: 1234})
        tpp = self._cexec_tpp(mask=0xFFFF, value=0x0041)
        result = TCPU().execute(tpp, memory, PacketContext())
        assert result.halted
        assert tpp.read_hop_word(2) == 0

    def test_mask_is_applied(self):
        memory = DictMemory({0x0000: 0x1242, 0x0004: 1})
        tpp = self._cexec_tpp(mask=0x00FF, value=0x0042)
        result = TCPU().execute(tpp, memory, PacketContext())
        assert not result.halted


class TestPacketFullStatus:
    """§3.3 graceful failure: 'packet ran out of room' is distinct from
    'switch lacks the address'."""

    def test_push_onto_full_stack_reports_packet_full(self):
        from repro.core import addressing
        address = addressing.resolve("[Switch:SwitchID]")
        tpp = make_tpp([Instruction(Opcode.PUSH, address)], num_hops=1)
        tpp.stack_pointer = len(tpp.memory)     # no room left
        result = TCPU().execute(tpp, DictMemory({address: 7}), PacketContext())
        assert result.statuses == [InstructionStatus.SKIPPED_PACKET_FULL]
        assert result.packet_full
        assert not result.halted                # still forwarded gracefully

    def test_push_missing_address_still_reports_no_memory(self):
        tpp, result = run("PUSH [Switch:SwitchID]", DictMemory({}))
        assert result.statuses == [InstructionStatus.SKIPPED_NO_MEMORY]
        assert not result.packet_full

    def test_load_past_per_hop_memory_reports_packet_full(self):
        memory = DictMemory({0x0000: 9})
        instructions = [Instruction(Opcode.LOAD, 0x0000, packet_offset=0)]
        tpp = make_tpp(instructions, num_hops=2, mode=AddressingMode.HOP)
        tpp.hop_number = 5                       # past the 2 preallocated hops
        result = TCPU().execute(tpp, memory, PacketContext())
        assert result.statuses == [InstructionStatus.SKIPPED_PACKET_FULL]

    def test_store_past_per_hop_memory_reports_packet_full(self):
        memory = DictMemory({0x1010: 0})
        tpp = make_tpp([Instruction(Opcode.STORE, 0x1010, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[5])
        tpp.hop_number = 3
        result = TCPU().execute(tpp, memory, PacketContext())
        assert result.statuses == [InstructionStatus.SKIPPED_PACKET_FULL]
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
        result = TCPU(write_enabled=False).execute(tpp, memory, PacketContext())
        assert result.statuses[0] is InstructionStatus.SKIPPED_WRITE_DISABLED
        assert memory.values[0x1010] == 10       # swap suppressed
        assert tpp.read_hop_word(0) == 10        # observed value written back
        assert not result.wrote_switch_memory

    def test_cstore_mismatch_with_writes_disabled_still_halts(self):
        memory = DictMemory({0x1010: 99, 0x1011: 0})
        tpp = self._cstore_tpp(old=10, new=11)
        result = TCPU(write_enabled=False).execute(tpp, memory, PacketContext())
        assert result.halted
        assert tpp.read_hop_word(0) == 99        # observed value written back
        assert result.statuses[1] is InstructionStatus.SKIPPED_HALTED

    def test_cexec_still_gates_when_writes_disabled(self):
        cexec = [Instruction(Opcode.CEXEC, 0x0000, packet_offset=0),
                 Instruction(Opcode.LOAD, 0x0004, packet_offset=2)]
        # Matching predicate: execution continues to the LOAD.
        memory = DictMemory({0x0000: 0x42, 0x0004: 1234})
        tpp = make_tpp(cexec, num_hops=1, mode=AddressingMode.HOP,
                       values_per_hop=3, initial_values=[0xFFFF, 0x42, 0])
        result = TCPU(write_enabled=False).execute(tpp, memory, PacketContext())
        assert not result.halted
        assert tpp.read_hop_word(2) == 1234
        # Non-matching predicate: halts exactly as with writes enabled.
        tpp2 = make_tpp(cexec, num_hops=1, mode=AddressingMode.HOP,
                        values_per_hop=3, initial_values=[0xFFFF, 0x41, 0])
        result2 = TCPU(write_enabled=False).execute(tpp2, memory, PacketContext())
        assert result2.halted


class MetadataMemory:
    """MemoryInterface over PacketMetadata only (for word-size tests)."""

    def read(self, address, context):
        from repro.core import addressing
        decoded = addressing.decode(address)
        if decoded.region == "packet_metadata":
            return context.metadata_word(decoded.field_offset)
        return None

    def write(self, address, value, context):
        return False


class TestMetadataWordMask:
    def test_timestamp_masked_to_tpp_word_size(self):
        from repro.core import addressing
        address = addressing.resolve("[PacketMetadata:ArrivalTimestamp]")
        context = PacketContext(arrival_time=1.0)        # 1e6 us = 0xF4240
        for word_bytes, expected in ((2, 0xF4240 & 0xFFFF), (4, 0xF4240)):
            tpp = make_tpp([Instruction(Opcode.PUSH, address)],
                           num_hops=1, word_bytes=word_bytes)
            TCPU().execute(tpp, MetadataMemory(), context)
            assert tpp.pushed_words() == [expected]

    def test_load_masks_to_word_size_too(self):
        from repro.core import addressing
        address = addressing.resolve("[PacketMetadata:ArrivalTimestamp]")
        context = PacketContext(arrival_time=1.0)
        tpp = make_tpp([Instruction(Opcode.LOAD, address, packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, word_bytes=2)
        TCPU().execute(tpp, MetadataMemory(), context)
        assert tpp.read_hop_word(0) == 0xF4240 & 0xFFFF


class TestExecuteProgramFastPath:
    def test_results_identical_to_execute(self):
        from repro.core import addressing
        a = addressing.resolve("[Switch:SwitchID]")
        b = addressing.resolve("[Switch:VersionNumber]")
        source = "PUSH [Switch:SwitchID]\nPUSH [Switch:VersionNumber]"
        slow_tpp = compile_tpp(source).tpp
        fast_tpp = compile_tpp(source).tpp
        tcpu = TCPU()
        slow = tcpu.execute(slow_tpp, DictMemory({a: 5, b: 9}), PacketContext())
        fast = tcpu.execute_program(fast_tpp, DictMemory({a: 5, b: 9}), PacketContext())
        assert slow.statuses == fast.statuses
        assert slow_tpp.pushed_words() == fast_tpp.pushed_words()

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
        assert {key[3] for key in tcpu._plan_cache} == {id(first), id(second)}

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
        assert context.metadata_word(0) == 2
        assert context.metadata_word(1) == 5
        assert context.metadata_word(3) == 77
        assert context.metadata_word(7) == 9
        assert context.metadata_word(8) == 1500
        assert context.metadata_word(42) is None


class TestAccounting:
    def test_executed_counts(self):
        from repro.core import addressing
        address = addressing.resolve("[Switch:SwitchID]")
        tcpu = TCPU()
        tpp = compile_tpp("PUSH [Switch:SwitchID]\nPUSH [Switch:VersionNumber]").tpp
        tcpu.execute(tpp, DictMemory({address: 1}), PacketContext())
        assert tcpu.tpps_executed == 1
        assert tcpu.instructions_executed == 1   # the second PUSH found no memory
