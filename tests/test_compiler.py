"""Tests for the TPP compiler (mnemonic resolution, stack expansion, templates)."""

import pytest

from repro.core import addressing
from repro.core.compiler import collector_tpp, compile_tpp, expand_stack_program
from repro.core.exceptions import AssemblyError, CapacityError
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import AddressingMode
from tcpu_oracle import push


class TestCompile:
    def test_stack_program_defaults_to_stack_mode(self):
        compiled = compile_tpp("PUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]")
        assert compiled.tpp.mode is AddressingMode.STACK
        assert compiled.values_per_hop == 2

    def test_hop_program_defaults_to_hop_mode(self):
        compiled = compile_tpp(
            "CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]\n"
            "STORE [Link:AppSpecific_1], [Packet:Hop[2]]")
        assert compiled.tpp.mode is AddressingMode.HOP
        assert compiled.values_per_hop == 3

    def test_memory_sized_for_requested_hops(self):
        compiled = compile_tpp("PUSH [Switch:SwitchID]", num_hops=7)
        assert len(compiled.tpp.memory) == 7 * compiled.tpp.word_bytes

    def test_app_id_stamped(self):
        assert compile_tpp("PUSH [Switch:SwitchID]", app_id=9).tpp.app_id == 9

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblyError):
            compile_tpp("# nothing here")

    def test_too_many_instructions_rejected(self):
        source = "\n".join("PUSH [Switch:SwitchID]" for _ in range(6))
        with pytest.raises(CapacityError):
            compile_tpp(source)

    def test_initial_values(self):
        compiled = compile_tpp("STORE [Link:AppSpecific_0], [Packet:Hop[0]]",
                               num_hops=2, initial_values=[42, 43])
        assert compiled.tpp.all_words()[:2] == [42, 43]

    def test_clone_tpp_returns_fresh_copy(self):
        compiled = compile_tpp("PUSH [Switch:SwitchID]")
        first, second = compiled.clone_tpp(), compiled.clone_tpp()
        push(first, 5)
        assert second.stack_pointer == 0


class TestStackExpansion:
    def test_pushes_become_loads_with_sequential_offsets(self):
        program = [Instruction(Opcode.PUSH, 0x0000),
                   Instruction(Opcode.PUSH, 0x0001),
                   Instruction(Opcode.PUSH, 0x0002)]
        expanded, per_hop = expand_stack_program(program)
        assert [i.opcode for i in expanded] == [Opcode.LOAD] * 3
        assert [i.packet_offset for i in expanded] == [0, 1, 2]
        assert per_hop == 3

    def test_pop_becomes_store(self):
        expanded, _ = expand_stack_program([Instruction(Opcode.POP, 0x1010)])
        assert expanded[0].opcode is Opcode.STORE

    def test_paper_section_3_5_example(self):
        # PUSH/PUSH/PUSH/POP from §3.5 becomes LOAD/LOAD/LOAD/STORE.
        source = """
        PUSH [PacketMetadata:OutputPort]
        PUSH [PacketMetadata:InputPort]
        PUSH [Stage$1:Reg1]
        POP [Stage$3:Reg3]
        """
        compiled = compile_tpp(source, expand_stack=True)
        opcodes = [i.opcode for i in compiled.tpp.instructions]
        assert opcodes == [Opcode.LOAD, Opcode.LOAD, Opcode.LOAD, Opcode.STORE]
        assert compiled.tpp.mode is AddressingMode.HOP

    def test_expansion_preserves_addresses(self):
        source = "PUSH [Switch:SwitchID]\nPUSH [Link:TX-Bytes]"
        compiled = compile_tpp(source, expand_stack=True)
        assert compiled.tpp.instructions[0].address == addressing.resolve("[Switch:SwitchID]")
        assert compiled.tpp.instructions[1].address == addressing.resolve("[Link:TX-Bytes]")


class TestCollectorTemplate:
    def test_collector_tpp_builds_push_program(self):
        compiled = collector_tpp(["Switch:SwitchID", "[Link:TX-Utilization]"])
        assert len(compiled.tpp.instructions) == 2
        assert all(i.opcode is Opcode.PUSH for i in compiled.tpp.instructions)
        assert compiled.values_per_hop == 2
