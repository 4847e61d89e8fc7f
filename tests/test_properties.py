"""Property-based tests (hypothesis) for core data structures and invariants."""

import itertools
import math

from hypothesis import example, given, settings, strategies as st

from repro.apps.rcp import RcpParameters, alpha_fair_rate, rcp_update
from repro.apps.sketches import BitmapSketch
from repro.core.isa import Instruction, Opcode, decode_program, encode_program
from repro.core.packet_format import AddressingMode, TPP, checksum16, make_tpp
from repro.net.link import Link, gbps, mbps
from repro.net.node import Host
from repro.net.packet import udp_packet
from repro.net.sim import Simulator
from repro.stats.series import TimeSeries, cdf, fractiles, fraction_at_or_below
from tcpu_oracle import push

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
opcodes = st.sampled_from(list(Opcode))
addresses = st.integers(min_value=0, max_value=0xFFFF)
offsets = st.integers(min_value=0, max_value=0xFF)

instructions = st.builds(Instruction, opcode=opcodes, address=addresses,
                         packet_offset=offsets)


# ---------------------------------------------------------------------------
# ISA / wire format
# ---------------------------------------------------------------------------
class TestIsaProperties:
    @given(instructions)
    def test_instruction_roundtrip(self, instruction):
        assert Instruction.decode(instruction.encode()) == instruction

    @given(st.lists(instructions, max_size=12))
    def test_program_roundtrip(self, program):
        assert decode_program(encode_program(program)) == program

    @given(st.binary(max_size=64))
    def test_checksum_is_16_bits_and_deterministic(self, data):
        value = checksum16(data)
        assert 0 <= value <= 0xFFFF
        assert checksum16(data) == value


class TestTppFormatProperties:
    # num_hops is capped at 10: make_tpp preallocates up to 5 packet-writing
    # instructions x word_bytes x num_hops bytes, and 5 * 4 * 10 = 200 is
    # exactly the MAX_PACKET_MEMORY_BYTES limit (11+ hops would make the
    # strategy generate invalid TPPs and fail spuriously).
    @given(st.lists(instructions, min_size=1, max_size=5),
           st.integers(min_value=1, max_value=10),
           st.sampled_from([2, 4]),
           st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=60)
    def test_encode_decode_roundtrip(self, program, num_hops, word_bytes, app_id):
        tpp = make_tpp(program, num_hops=num_hops, word_bytes=word_bytes, app_id=app_id)
        decoded = TPP.decode(tpp.encode())
        assert decoded.instructions == tpp.instructions
        assert decoded.memory == tpp.memory
        assert decoded.app_id == app_id
        assert decoded.word_bytes == word_bytes

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=20))
    def test_pushed_words_read_back_in_order(self, values):
        tpp = make_tpp([Instruction(Opcode.PUSH, 0)], num_hops=len(values),
                       values_per_hop=1)
        for value in values:
            assert push(tpp, value)
        assert tpp.pushed_words() == values

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=0xFFFF))
    def test_hop_addressing_isolation(self, num_hops, values_per_hop, value):
        # Writing one hop's slice never disturbs any other hop's slice.
        tpp = make_tpp([Instruction(Opcode.LOAD, 0)], num_hops=num_hops,
                       mode=AddressingMode.HOP, values_per_hop=values_per_hop)
        target_hop = num_hops - 1
        tpp.write_hop_word(0, value, hop=target_hop)
        for hop in range(num_hops - 1):
            for offset in range(values_per_hop):
                assert tpp.read_hop_word(offset, hop=hop) == 0
        assert tpp.read_hop_word(0, hop=target_hop) == value

    @given(st.lists(instructions, min_size=1, max_size=5),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=40)
    def test_wire_length_structure(self, program, num_hops):
        tpp = make_tpp(program, num_hops=num_hops)
        assert tpp.wire_length() == 12 + 4 * len(program) + len(tpp.memory)


# ---------------------------------------------------------------------------
# Queues
# ---------------------------------------------------------------------------
def fifo_model(arrivals, sizes, rate, capacity_bytes, capacity_packets):
    """One drop-tail FIFO port, independent of the simulator.

    Returns, per packet, the time its last bit leaves (None when dropped)
    and ``waiting_at(t)``: the (packets, bytes) still queued at time ``t``.
    A send at instant t runs before a serialisation that finishes at t.
    """
    accepted = []                       # (start, size, queued behind another)
    departures, busy_until = [], -math.inf
    for arrival, size in zip(arrivals, sizes):
        waiting = [s for start, s, queued in accepted if queued and start >= arrival]
        if (sum(waiting) + size > capacity_bytes
                or (capacity_packets is not None and len(waiting) >= capacity_packets)):
            departures.append(None)
            continue
        queued = busy_until >= arrival
        start = max(arrival, busy_until)
        busy_until = start + size * 8.0 / rate
        accepted.append((start, size, queued))
        departures.append(busy_until)

    def waiting_at(t):
        left = [s for start, s, queued in accepted if queued and start > t]
        return len(left), sum(left)
    return departures, waiting_at


class TestQueueProperties:
    @given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2e-3)),
                              st.integers(min_value=22, max_value=1458)),
                    min_size=1, max_size=40),
           st.sampled_from([mbps(1), mbps(10), mbps(100), gbps(1)]),
           st.floats(0.0, 1e-3),
           st.one_of(st.integers(min_value=64, max_value=20000), st.just(math.inf)),
           st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    @example([(1e-3, 958)] * 10, mbps(100), 1e-6, 512 * 1024, None)   # sparse
    @example([(0.0, 958)] * 10, mbps(10), 1e-6, 4000, 3)              # one burst
    @settings(max_examples=150, deadline=None)
    def test_port_matches_store_and_forward_oracle(self, arrivals, rate, delay,
                                                   capacity_bytes, capacity_packets):
        times = list(itertools.accumulate(gap for gap, _ in arrivals))
        packets = [udp_packet("a", "b", payload) for _, payload in arrivals]
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        port = a.add_port(capacity_bytes, capacity_packets)
        Link(port, b.add_port(), rate_bps=rate, delay_s=delay)
        for when, packet in zip(times, packets):
            sim.schedule_at(when, port.send, packet)
        departures, waiting_at = fifo_model(times, [p.size for p in packets], rate,
                                            capacity_bytes, capacity_packets)

        sim.run(until=times[-1])
        assert (port.occupancy_packets, port.occupancy_bytes) == waiting_at(times[-1])
        sim.run_until_idle()
        for packet, departure in zip(packets, departures):
            if departure is None:
                assert packet.dropped and packet.delivered_at is None
            else:
                assert not packet.dropped
                assert packet.delivered_at == departure + delay
        accepted = sum(d is not None for d in departures)
        assert port.packets_enqueued_total == accepted
        assert accepted + port.packets_dropped_total == len(packets)
        assert port.packets_dequeued_total + port.occupancy_packets == accepted
        assert port.bytes_dequeued_total + port.occupancy_bytes \
            == port.bytes_enqueued_total
        assert port.occupancy_packets == port.occupancy_bytes == 0
        assert port.tx_packets == b.packets_received == accepted


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------
class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_events_observe_nondecreasing_time(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run_until_idle()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)


# ---------------------------------------------------------------------------
# RCP math
# ---------------------------------------------------------------------------
class TestRcpProperties:
    @given(st.floats(min_value=1e5, max_value=1e9),
           st.floats(min_value=0, max_value=2e9),
           st.floats(min_value=0, max_value=1e6),
           st.floats(min_value=1e6, max_value=1e9))
    @settings(max_examples=80)
    def test_rcp_update_stays_in_bounds(self, rate, traffic, queue, capacity):
        params = RcpParameters()
        new_rate = rcp_update(rate, traffic, queue, capacity, params)
        assert params.min_rate_bps <= new_rate <= capacity

    @given(st.lists(st.floats(min_value=1e3, max_value=1e9), min_size=1, max_size=8),
           st.floats(min_value=0.5, max_value=8.0))
    @settings(max_examples=80)
    def test_alpha_fair_rate_bounded_by_min_and_positive(self, rates, alpha):
        value = alpha_fair_rate(rates, alpha)
        assert 0 < value <= min(rates) + 1e-6

    @given(st.lists(st.floats(min_value=1e3, max_value=1e9), min_size=2, max_size=8))
    @settings(max_examples=50)
    def test_alpha_ordering(self, rates):
        # Higher α is more egalitarian: the aggregate rate is non-decreasing in α
        # (approaches the min from below).
        low = alpha_fair_rate(rates, 1.0)
        high = alpha_fair_rate(rates, 4.0)
        maxmin = alpha_fair_rate(rates, math.inf)
        assert low <= high + 1e-6
        assert high <= maxmin + 1e-6


# ---------------------------------------------------------------------------
# Sketches
# ---------------------------------------------------------------------------
class TestSketchProperties:
    @given(st.sets(st.text(min_size=1, max_size=12), min_size=1, max_size=120))
    @settings(max_examples=40)
    def test_estimate_tracks_cardinality(self, elements):
        sketch = BitmapSketch(bits=4096)
        for element in elements:
            sketch.add(element)
        estimate = sketch.estimate()
        assert estimate >= 0
        assert abs(estimate - len(elements)) <= max(5, 0.2 * len(elements))

    @given(st.sets(st.text(min_size=1, max_size=8), max_size=60),
           st.sets(st.text(min_size=1, max_size=8), max_size=60))
    @settings(max_examples=40)
    def test_merge_commutes(self, left_elements, right_elements):
        a1, b1 = BitmapSketch(512), BitmapSketch(512)
        a2, b2 = BitmapSketch(512), BitmapSketch(512)
        for element in left_elements:
            a1.add(element)
            a2.add(element)
        for element in right_elements:
            b1.add(element)
            b2.add(element)
        a1.merge(b1)
        b2.merge(a2)
        assert a1.bitmap == b2.bitmap


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------
class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_cdf_monotone_and_ends_at_one(self, samples):
        points = cdf(samples)
        fractions = [fraction for _, fraction in points]
        values = [value for value, _ in points]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200),
           st.floats(min_value=0, max_value=1))
    def test_fractiles_within_sample_range(self, samples, point):
        value = fractiles(samples, [point])[point]
        assert min(samples) <= value <= max(samples)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=100),
           st.floats(min_value=-100, max_value=100))
    def test_fraction_at_or_below_is_probability(self, samples, threshold):
        fraction = fraction_at_or_below(samples, threshold)
        assert 0.0 <= fraction <= 1.0

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e3),
                              st.floats(min_value=-1e3, max_value=1e3)),
                    min_size=1, max_size=100))
    @settings(max_examples=40)
    def test_time_series_resample_preserves_bounds(self, points):
        series = TimeSeries()
        for time, value in sorted(points, key=lambda p: p[0]):
            series.add(time, value)
        resampled = series.resample(interval=10.0, how="max")
        if resampled.values:
            assert max(resampled.values) <= max(series.values) + 1e-9
