"""Tests for the TPP wire format (header, packet memory, encode/decode)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.exceptions import CapacityError, EncodingError
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import (AddressingMode, DEFAULT_WORD_BYTES, EncapProtocol,
                                      MAX_PACKET_MEMORY_BYTES, TPP, TPP_HEADER_BYTES,
                                      checksum16, make_tpp)


def _push_program(n=3):
    return [Instruction(Opcode.PUSH, address=i) for i in range(n)]


class TestConstruction:
    def test_header_is_twelve_bytes(self):
        assert TPP_HEADER_BYTES == 12

    def test_wire_length_matches_paper_microburst_overhead(self):
        # §2.1: 12 B header + 12 B instructions + 6 B/hop * 5 hops = 54 B.
        tpp = make_tpp(_push_program(3), num_hops=5)
        assert tpp.wire_length() == 54

    def test_instruction_limit_enforced(self):
        with pytest.raises(CapacityError):
            make_tpp(_push_program(6), num_hops=2)

    def test_instruction_limit_can_be_raised_explicitly(self):
        tpp = make_tpp(_push_program(6), num_hops=2, max_instructions=8)
        assert len(tpp.instructions) == 6

    def test_packet_memory_limit_enforced(self):
        with pytest.raises(CapacityError):
            TPP(instructions=_push_program(1),
                memory=bytearray(MAX_PACKET_MEMORY_BYTES + 2))

    def test_invalid_word_size_rejected(self):
        with pytest.raises(EncodingError):
            make_tpp(_push_program(1), num_hops=2, word_bytes=3)

    def test_hop_mode_requires_hop_size(self):
        with pytest.raises(EncodingError):
            TPP(instructions=_push_program(1), memory=bytearray(8),
                mode=AddressingMode.HOP, hop_size=0)

    def test_values_per_hop_default_counts_packet_writers(self):
        tpp = make_tpp(_push_program(3), num_hops=4)
        assert len(tpp.memory) == 3 * DEFAULT_WORD_BYTES * 4

    def test_initial_values_prefill_memory(self):
        tpp = make_tpp([Instruction(Opcode.STORE, 0x1010)], num_hops=2,
                       values_per_hop=2, initial_values=[7, 9, 11, 13])
        assert tpp.all_words()[:4] == [7, 9, 11, 13]

    def test_initial_values_overflow_rejected(self):
        with pytest.raises(CapacityError):
            make_tpp(_push_program(1), num_hops=1, values_per_hop=1,
                     initial_values=[1, 2, 3])


class TestMemoryAccess:
    def test_push_and_pushed_words(self):
        tpp = make_tpp(_push_program(2), num_hops=3)
        assert tpp.push(10) and tpp.push(20)
        assert tpp.pushed_words() == [10, 20]
        assert tpp.stack_pointer == 2 * DEFAULT_WORD_BYTES

    def test_push_beyond_memory_fails_gracefully(self):
        tpp = make_tpp(_push_program(1), num_hops=1)
        assert tpp.push(1)
        assert not tpp.push(2)

    def test_pop_consumes_in_order(self):
        tpp = make_tpp(_push_program(2), num_hops=2, initial_values=[5, 6])
        assert tpp.pop() == 5
        assert tpp.pop() == 6

    def test_values_truncated_to_word_size(self):
        tpp = make_tpp(_push_program(1), num_hops=1, word_bytes=2)
        tpp.push(0x12345)
        assert tpp.pushed_words() == [0x2345]

    def test_hop_addressing(self):
        tpp = make_tpp([Instruction(Opcode.LOAD, 0, packet_offset=0),
                        Instruction(Opcode.LOAD, 1, packet_offset=1)],
                       num_hops=3, mode=AddressingMode.HOP, values_per_hop=2)
        tpp.write_hop_word(0, 111, hop=0)
        tpp.write_hop_word(1, 222, hop=0)
        tpp.write_hop_word(0, 333, hop=2)
        assert tpp.read_hop_word(0, hop=0) == 111
        assert tpp.read_hop_word(1, hop=0) == 222
        assert tpp.read_hop_word(0, hop=2) == 333

    def test_out_of_range_hop_word_is_none(self):
        tpp = make_tpp(_push_program(1), num_hops=2, mode=AddressingMode.HOP)
        assert tpp.read_hop_word(0, hop=5) is None
        assert not tpp.write_hop_word(0, 1, hop=5)

    def test_words_by_hop_stack_mode(self):
        tpp = make_tpp(_push_program(2), num_hops=3)
        for value in (1, 2, 3, 4):
            tpp.push(value)
        assert tpp.words_by_hop(2) == [[1, 2], [3, 4]]

    def test_words_by_hop_hop_mode(self):
        tpp = make_tpp([Instruction(Opcode.LOAD, 0, packet_offset=0)],
                       num_hops=3, mode=AddressingMode.HOP)
        tpp.write_hop_word(0, 9, hop=0)
        tpp.write_hop_word(0, 8, hop=1)
        tpp.hop_number = 2
        assert tpp.words_by_hop(1) == [[9], [8]]

    def test_advance_hop(self):
        tpp = make_tpp(_push_program(1), num_hops=2)
        tpp.advance_hop()
        tpp.advance_hop()
        assert tpp.hop_number == 2


def per_word_pushed_words(tpp):
    """The per-word loop ``pushed_words`` once was: the oracle for TPPs
    whose stack pointer is word-aligned and inside packet memory."""
    return [int.from_bytes(tpp.memory[i:i + tpp.word_bytes], "big")
            for i in range(0, tpp.stack_pointer, tpp.word_bytes)]


def per_word_words_by_hop(tpp, values_per_hop):
    """The per-word loop ``words_by_hop`` once was (same oracle domain, and
    a hop number no larger than the hops packet memory holds)."""
    if tpp.mode is AddressingMode.STACK:
        words = per_word_pushed_words(tpp)
        return [words[i:i + values_per_hop] for i in range(0, len(words), values_per_hop)]
    return [[tpp.read_hop_word(offset, hop) or 0 for offset in range(values_per_hop)]
            for hop in range(tpp.hop_number)]


class TestWordExtraction:
    """``pushed_words`` / ``words_by_hop`` return only words that lie in
    packet memory: never a word past its end, never a partial word."""

    @given(st.sampled_from([2, 4]), st.sampled_from(list(AddressingMode)),
           st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**16), st.data())
    def test_in_range_tpps_match_the_per_word_loop(self, word_bytes, mode, num_hops,
                                                   values_per_hop, fill, data):
        tpp = make_tpp(_push_program(1), num_hops=num_hops, mode=mode,
                       word_bytes=word_bytes, values_per_hop=values_per_hop)
        tpp.memory[:] = random.Random(fill).randbytes(len(tpp.memory))
        tpp.stack_pointer = word_bytes * data.draw(
            st.integers(0, len(tpp.memory) // word_bytes))
        tpp.hop_number = data.draw(st.integers(0, num_hops))
        assert tpp.pushed_words() == per_word_pushed_words(tpp)
        for per_hop in {1, values_per_hop}:
            assert tpp.words_by_hop(per_hop) == per_word_words_by_hop(tpp, per_hop)

    def test_stack_pointer_past_memory_reads_only_memory(self):
        # A wire TPP may claim any stack pointer up to 255.
        tpp = TPP(_push_program(1), bytearray(range(1, 9)), stack_pointer=200)
        decoded = TPP.decode(tpp.encode())
        assert decoded.stack_pointer == 200
        assert decoded.pushed_words() == [0x0102, 0x0304, 0x0506, 0x0708]
        assert decoded.words_by_hop(3) == [[0x0102, 0x0304, 0x0506], [0x0708]]

    def test_partial_word_below_the_stack_pointer_is_not_returned(self):
        tpp = TPP(_push_program(1), bytearray(b"\x00\x07\x00\x09"), stack_pointer=3)
        assert tpp.pushed_words() == [7]
        tpp = TPP(_push_program(1), bytearray(7), word_bytes=4, stack_pointer=8)
        assert tpp.pushed_words() == [0]

    def test_hop_mode_returns_only_hops_inside_memory(self):
        tpp = make_tpp([Instruction(Opcode.LOAD, 0, packet_offset=0)], num_hops=2,
                       mode=AddressingMode.HOP, initial_values=[4, 5])
        tpp.hop_number = 5                     # three hops found no room
        assert tpp.out_of_room
        assert tpp.words_by_hop(1) == [[4], [5]]
        assert tpp.words_by_hop(2) == [[4, 5]]   # hop 1's record would run past the end
        short = TPP(tpp.instructions, bytearray(1), mode=AddressingMode.HOP,
                    hop_size=2, hop_number=1)
        assert short.words_by_hop(1) == []


class TestEncodeDecode:
    def test_roundtrip(self):
        tpp = make_tpp(_push_program(3), num_hops=4, app_id=42)
        tpp.push(1234)
        tpp.advance_hop()
        decoded = TPP.decode(tpp.encode())
        assert decoded.instructions == tpp.instructions
        assert decoded.memory == tpp.memory
        assert decoded.app_id == 42
        assert decoded.hop_number == 1
        assert decoded.stack_pointer == tpp.stack_pointer
        assert decoded.mode == tpp.mode
        assert decoded.word_bytes == tpp.word_bytes

    def test_hop_mode_roundtrip(self):
        tpp = make_tpp([Instruction(Opcode.LOAD, 0x1000, packet_offset=0)],
                       num_hops=3, mode=AddressingMode.HOP, word_bytes=4)
        decoded = TPP.decode(tpp.encode())
        assert decoded.mode is AddressingMode.HOP
        assert decoded.hop_size == tpp.hop_size
        assert decoded.word_bytes == 4

    def test_checksum_detects_corruption(self):
        data = bytearray(make_tpp(_push_program(2), num_hops=2).encode())
        data[-1] ^= 0xFF
        with pytest.raises(EncodingError):
            TPP.decode(bytes(data))
        TPP.decode(bytes(data), verify_checksum=False)   # can be bypassed explicitly

    def test_truncated_input_rejected(self):
        encoded = make_tpp(_push_program(2), num_hops=2).encode()
        with pytest.raises(EncodingError):
            TPP.decode(encoded[:8])
        with pytest.raises(EncodingError):
            TPP.decode(encoded[:-4])

    @pytest.mark.parametrize("verify_checksum", [True, False])
    @pytest.mark.parametrize("index, corrupt, names", [
        (0, lambda byte: (byte & ~0x0C) | (2 << 2), "addressing-mode code 2"),
        (0, lambda byte: byte | (3 << 2), "addressing-mode code 3"),
        (7, lambda byte: 3, "encapsulated-protocol code 3"),
        (7, lambda byte: 9, "encapsulated-protocol code 9"),
    ])
    def test_reserved_header_codes_are_encoding_errors(self, index, corrupt, names,
                                                       verify_checksum):
        # Header bytes sit outside the checksum, so these reach the enum
        # lookups with or without verification; a bare ValueError would slip
        # past callers that catch TPPError per the module's contract.
        data = bytearray(make_tpp(_push_program(2), num_hops=2).encode())
        data[index] = corrupt(data[index])
        with pytest.raises(EncodingError, match=names):
            TPP.decode(bytes(data), verify_checksum=verify_checksum)

    def test_checksum16_known_properties(self):
        assert checksum16(b"") == 0xFFFF
        assert checksum16(b"\x00\x00") == 0xFFFF
        assert 0 <= checksum16(b"hello world") <= 0xFFFF

    def test_clone_shares_the_program_and_copies_the_packet(self):
        tpp = make_tpp([Instruction(Opcode.LOAD, 0x1000, packet_offset=1)], num_hops=3,
                       mode=AddressingMode.HOP, word_bytes=4, app_id=7,
                       initial_values=[1, 2, 3], max_instructions=8)
        tpp.hop_number, tpp.stack_pointer, tpp.version = 2, 4, 3
        tpp.encap_proto, tpp.execution_halted = EncapProtocol.IPV4, True
        clone = tpp.clone()
        assert clone.program is tpp.program
        # What the constructor-built clone used to be, field by field.
        rebuilt = TPP(instructions=list(tpp.instructions), memory=bytearray(tpp.memory),
                      mode=tpp.mode, word_bytes=tpp.word_bytes, hop_number=tpp.hop_number,
                      stack_pointer=tpp.stack_pointer, hop_size=tpp.hop_size,
                      app_id=tpp.app_id, encap_proto=tpp.encap_proto, version=tpp.version,
                      max_instructions=tpp.max_instructions)
        for name in ("instructions", "memory", "mode", "word_bytes", "hop_number",
                     "stack_pointer", "hop_size", "app_id", "encap_proto", "version",
                     "max_instructions", "execution_halted", "num_hops_capacity"):
            assert getattr(clone, name) == getattr(rebuilt, name), name
        assert clone == rebuilt and not clone.execution_halted
        clone.memory[0] ^= 0xFF
        clone.write_hop_word(0, 99, hop=1)
        assert tpp.memory == rebuilt.memory != clone.memory
        with pytest.raises(TypeError):
            clone.instructions[0] = Instruction(Opcode.NOP, 0)
        with pytest.raises(AttributeError):
            clone.word_bytes = 2

    def test_clone_is_independent(self):
        tpp = make_tpp(_push_program(2), num_hops=2)
        clone = tpp.clone()
        clone.push(99)
        clone.advance_hop()
        assert tpp.stack_pointer == 0
        assert tpp.hop_number == 0
        assert clone.pushed_words() == [99]
