"""Tests for the measurement sketches (§2.5) and network verification (§2.6)."""

from functools import partial

import pytest

from repro.apps.netverify import (RouteVerifier, build_fast_update_tpp, fast_update_registers,
                                  observation_from_tpp)
from repro.apps.sketches import (SKETCH_TPP_SOURCE, BitmapSketch, LinkKey,
                                 SketchAggregator, sketch_memory_projection,
                                 sketch_tpp)
from repro.baselines.exact_counter import ExactDistinctCounter
from repro.core import addressing
from repro.endhost import PacketFilter, install_stacks
from repro.net import Simulator, build_dumbbell, mbps, udp_packet
from repro.session import Scenario
from tcpu_oracle import push


def _seed_bitmaps(experiment, key):
    """Give h0 and h1 twenty distinct elements each on one link."""
    for host in ("h0", "h1"):
        sketch = BitmapSketch(512)
        for i in range(20):
            sketch.add(f"{host}-{i}")
        experiment.apps["sketch"].aggregators[host].bitmaps[key] = sketch


def _send_all_to_all(experiment):
    names = list(experiment.network.hosts)
    for src in names:
        for dst in names:
            if src != dst:
                experiment.host(src).send(udp_packet(src, dst, 200, dport=1234))


class TestBitmapSketch:
    def test_estimate_improves_with_bitmap_size(self):
        elements = [f"10.0.{i // 256}.{i % 256}" for i in range(400)]
        small, large = BitmapSketch(bits=256), BitmapSketch(bits=4096)
        for element in elements:
            small.add(element)
            large.add(element)
        small_error = abs(small.estimate() - 400) / 400
        large_error = abs(large.estimate() - 400) / 400
        assert large_error < 0.1
        assert large_error <= small_error + 0.05

    def test_duplicates_do_not_inflate_estimate(self):
        sketch = BitmapSketch(bits=1024)
        for _ in range(50):
            for element in ("a", "b", "c"):
                sketch.add(element)
        assert sketch.estimate() == pytest.approx(3, abs=2)

    def test_merge_is_union(self):
        left, right = BitmapSketch(bits=1024), BitmapSketch(bits=1024)
        for i in range(100):
            (left if i % 2 else right).add(f"host{i}")
        left.merge(right)
        assert left.estimate() == pytest.approx(100, rel=0.15)

    def test_merge_requires_same_geometry(self):
        with pytest.raises(ValueError):
            BitmapSketch(bits=64).merge(BitmapSketch(bits=128))

    def test_saturated_bitmap_returns_finite_estimate(self):
        sketch = BitmapSketch(bits=8)
        for i in range(1000):
            sketch.add(str(i))
        assert sketch.zero_bits() == 0
        assert sketch.estimate() < float("inf")

    def test_memory_footprint(self):
        assert BitmapSketch(bits=1024).memory_bytes() == 128
        assert sketch_memory_projection()["total_megabytes_per_server"] == pytest.approx(8.39, rel=0.01)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            BitmapSketch(bits=0)


class TestSketchAggregation:
    def test_aggregator_keys_by_link(self):
        aggregator = SketchAggregator("h0", bits=512, key_field="dst")
        tpp = sketch_tpp(num_hops=4).clone_tpp()
        for switch_id, port in ((1, 2), (2, 0)):
            push(tpp, switch_id)
            push(tpp, port)
            tpp.advance_hop()
        aggregator.on_tpp(tpp, udp_packet("h0", "h9", 100))
        assert set(aggregator.bitmaps) == {LinkKey(1, 2), LinkKey(2, 0)}

    def test_merged_summary_ors_host_bitmaps(self):
        key = LinkKey(1, 1)
        result = (Scenario("dumbbell", link_rate_bps=mbps(10))
                  .tpp("sketch", SKETCH_TPP_SOURCE,
                       aggregator=partial(SketchAggregator, bits=512),
                       receivers=["h0", "h1"])
                  .setup(partial(_seed_bitmaps, key=key))
                  .run(duration_s=0.0))
        merged = result.merged_summary("sketch")
        assert merged[key].estimate() == pytest.approx(40, rel=0.2)
        assert merged[key].memory_bytes() == 64
        # Merging copies: the hosts' own bitmaps are untouched.
        assert result.aggregators("sketch")["h0"].bitmaps[key].estimate() \
            == pytest.approx(20, rel=0.2)

    def test_end_to_end_distinct_count_matches_exact_baseline(self):
        result = (Scenario("dumbbell", link_rate_bps=mbps(10))
                  .tpp("sketch", SKETCH_TPP_SOURCE, num_hops=10,
                       filter=PacketFilter(protocol="udp"),
                       aggregator=partial(SketchAggregator, bits=2048,
                                          key_field="src"))
                  .setup(_send_all_to_all)
                  .run(duration_s=0.2))
        network = result.network
        merged = result.merged_summary("sketch")
        # The exact counts from first principles: the s0->s1 link sees
        # sources h0..h2, the s1->s0 link sees h3..h5.
        exact = ExactDistinctCounter()
        for near, far, sources in (("s0", "s1", ("h0", "h1", "h2")),
                                   ("s1", "s0", ("h3", "h4", "h5"))):
            key = LinkKey(network.switches[near].switch_id,
                          network.ports_towards(near, far)[0])
            for host in sources:
                exact.add(key, host)
        for key, count in exact.counts().items():
            assert merged[key].estimate() == pytest.approx(count, abs=1)

    def test_sampling_reduces_overhead_below_one_percent(self):
        # §2.5: sampling 1-in-10 packets keeps the bandwidth overhead < 1 %.
        compiled = sketch_tpp(num_hops=10)
        overhead = compiled.tpp.wire_length() / 10 / 1000
        assert overhead < 0.01


class TestRouteVerification:
    def _network(self):
        sim = Simulator()
        network = build_dumbbell(sim, link_rate_bps=mbps(10))
        return sim, network, install_stacks(network)

    def test_expected_path_and_verify(self):
        _, network, _ = self._network()
        verifier = RouteVerifier(network)
        expected = verifier.expected_switch_path("h0", "h5")
        assert expected == [1, 2]
        ok = verifier.verify(expected, [1, 2])
        assert ok.matches and ok.divergence_hop is None
        bad = verifier.verify(expected, [1, 3])
        assert not bad.matches and bad.divergence_hop == 1
        short = verifier.verify(expected, [1])
        assert not short.matches and short.divergence_hop == 1

    def test_observation_from_tpp(self):
        from repro.apps.netverify import PATH_TPP_SOURCE
        from repro.core.compiler import compile_tpp
        tpp = compile_tpp(PATH_TPP_SOURCE, num_hops=4).clone_tpp()
        for values in ((1, 0, 3), (2, 1, 5)):
            for value in values:
                push(tpp, value)
            tpp.advance_hop()
        observation = observation_from_tpp(tpp, time=0.5)
        assert observation.switch_ids == [1, 2]
        assert observation.entry_versions == [3, 5]

    def test_fast_update_installs_values_along_path(self):
        sim, network, stacks = self._network()
        fast_update_registers(stacks["h0"], "h5", stage=1, register=2,
                              per_hop_values=[111, 222])
        sim.run(until=0.1)
        assert network.switches["s0"].pipeline.stage(1).read_register(2) == 111
        assert network.switches["s1"].pipeline.stage(1).read_register(2) == 222

    def test_fast_update_tpp_structure(self):
        tpp = build_fast_update_tpp(stage=2, register=0, per_hop_values=[5, 6, 7])
        assert len(tpp.instructions) == 1
        assert tpp.instructions[0].address == addressing.stage_address(2, "Reg0")
        assert tpp.read_hop_word(0, hop=2) == 7
