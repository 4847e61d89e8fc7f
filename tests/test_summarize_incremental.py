"""Host-side summary cost is per observation, not per epoch x run length.

Three guards for the rules `docs/ARCHITECTURE.md` states as collect-plane
invariant 3:

* **run-length independence, by count** — canonical-key computations per
  sample must not grow with the duration of a monitored delta/tree run
  (counted, not timed, so the guard is exact on any machine);
* **incremental == rebuild** — every ``summarize()`` implementer folds on
  arrival; the from-scratch bodies they replaced live on here as the
  reference oracles and must render identically after every TPP / tick.
  The micro-burst oracle rebuilds from queue samples an ``on_tpp``
  callback (``Scenario.collect``) recorded, never from the aggregator's
  own state, so it stays independent of the code it checks;
* **snapshot isolation** — ``summarize()`` hands out independent
  snapshots: shard state and delta channels retain what they are handed,
  so a later observation must never show through.
"""

import random

import pytest

import repro.collect.summary as summary_module
from repro.apps.losslocal import (LOSSLOCAL_TPP_SOURCE,
                                  LossLocalizationAggregator,
                                  losslocal_scenario)
from repro.apps.microburst import (MICROBURST_TPP_SOURCE, OCCUPANCY_EDGES,
                                   MicroburstAggregator)
from repro.apps.netsight import PACKET_HISTORY_TPP_SOURCE, NetSightAggregator
from repro.apps.sketches import SKETCH_TPP_SOURCE, SketchAggregator
from repro.collect import (CollectPlane, CounterSummary, HistogramSummary,
                           SeriesSummary, SummaryBundle, TopKSummary,
                           summary_jsonable)
from repro.core.compiler import compile_tpp
from repro.endhost import PacketFilter
from repro.faults import FaultEvent, FaultPlan
from repro.net import mbps, udp_packet
from repro.session import Scenario
from tcpu_oracle import push


# --------------------------------------------------------------------------
# The from-scratch summarize() bodies this PR replaced: the reference oracles
# --------------------------------------------------------------------------
def _tpp_counters(aggregator, **extra):
    return CounterSummary({"tpps": aggregator.tpps_received,
                           "tpps_truncated": aggregator.tpps_truncated,
                           **extra})


def record_queue_samples(observed):
    """An ``on_tpp`` callback (``Scenario.collect``): every complete hop's
    ``(time, (switch id, output port), occupancy)``, per receiving host."""
    def on_tpp(tpp, packet):
        time = packet.delivered_at if packet.delivered_at is not None else 0.0
        for hop in tpp.words_by_hop(3):
            if len(hop) == 3:
                observed.setdefault(packet.dst, []).append(
                    (time, (hop[0], hop[1]), hop[2]))
    return on_tpp


def rebuild_microburst(aggregator, samples):
    occupancy = HistogramSummary(OCCUPANCY_EDGES)
    busiest = TopKSummary(k=8)
    for _, queue, packets in samples:
        occupancy.observe(packets)
        busiest.observe(queue)
    return SummaryBundle({
        "counters": _tpp_counters(aggregator, samples=len(samples)),
        "occupancy": occupancy, "busiest_queues": busiest,
        "queue_series": SeriesSummary(samples)})


def rebuild_netsight(aggregator, samples):
    paths = TopKSummary(k=16)
    for path, count in aggregator.store.path_counts().items():
        paths.observe(path, count)
    return SummaryBundle({
        "counters": _tpp_counters(aggregator, histories=len(aggregator.store)),
        "paths": paths})


def rebuild_losslocal(aggregator, samples):
    deficits = SeriesSummary()
    for (sid_a, sid_b), deficit in aggregator.link_deficits.items():
        deficits.add(0.0, f"{sid_a}->{sid_b}", deficit)
    return SummaryBundle({
        "counters": _tpp_counters(aggregator,
                                  samples=aggregator.deficit_samples),
        "max_deficits": deficits})


def rebuild_sketches(aggregator, samples):
    return SummaryBundle(dict(aggregator.bitmaps))


def rebuild_controller(controller, ticks):
    """``ticks``: the (time, penalty, diversity) the test saw at each tick."""
    series = SeriesSummary()
    for time, penalty, _ in ticks:
        series.add(time, "loss-penalty", penalty)
    for time, _, diversity in ticks:
        series.add(time, "worst-tor-diversity", diversity)
    return SummaryBundle({
        "counters": CounterSummary({
            "ticks": controller.ticks, "verdicts": controller.verdicts_seen,
            "links_disabled": controller.links_disabled,
            "links_repaired": controller.links_repaired,
            "reroutes": controller.reroutes, "refusals": controller.refusals,
            "loss_penalty": controller.loss_penalty()}),
        "timeseries": series})


#: name -> (aggregator class, TPP source, values per hop, reference oracle);
#: each oracle takes the aggregator and the host's recorded queue samples
#: (only the micro-burst oracle reads them).
AGGREGATORS = {
    "microburst": (MicroburstAggregator, MICROBURST_TPP_SOURCE, 3,
                   rebuild_microburst),
    "netsight": (NetSightAggregator, PACKET_HISTORY_TPP_SOURCE, 3,
                 rebuild_netsight),
    "losslocal": (LossLocalizationAggregator, LOSSLOCAL_TPP_SOURCE, 3,
                  rebuild_losslocal),
    "sketches": (SketchAggregator, SKETCH_TPP_SOURCE, 2, rebuild_sketches),
}


def feed(aggregator, source, values_per_hop, rng, clock, observed):
    """Deliver one generated TPP to the aggregator and, as a scenario's
    ``collect`` callback would see it, to the ``observed`` recorder (host
    ``h9``); returns its delivery time — often equal to the previous one,
    so same-instant hops out of key order and ties across snapshots (the
    tail interleaving the canonical prefix) both occur."""
    clock += rng.choice((0.0, 0.0, 0.25, 1.0))
    tpp = compile_tpp(source, num_hops=6).clone_tpp()
    for _ in range(rng.randrange(1, 6)):
        for _ in range(values_per_hop):
            push(tpp, rng.randrange(0, 12))
        tpp.advance_hop()
    packet = udp_packet(f"h{rng.randrange(4)}", "h9", 100)
    packet.delivered_at = clock
    aggregator.on_tpp(tpp, packet)
    record_queue_samples(observed)(tpp, packet)
    return clock


def controller_experiment():
    plan = FaultPlan(events=(FaultEvent(0.0, "edge0_0<->agg0_0", "loss", 0.10),),
                     seed=7)
    return losslocal_scenario(k=4, link_rate_bps=mbps(100), offered_load=0.2,
                              seed=1, faults=plan,
                              remediation="disable-and-repair").build(0.2)


class TestIncrementalEqualsRebuild:
    @pytest.mark.parametrize("name", sorted(AGGREGATORS))
    @pytest.mark.parametrize("seed", [1, 20140817])
    def test_aggregator_after_every_tpp(self, name, seed):
        cls, source, values_per_hop, rebuild = AGGREGATORS[name]
        rng, clock, aggregator = random.Random(seed), 0.0, cls("h0")
        observed = {}
        for _ in range(40):
            clock = feed(aggregator, source, values_per_hop, rng, clock,
                         observed)
            assert summary_jsonable(aggregator.summarize()) \
                == summary_jsonable(rebuild(aggregator, observed.get("h9", [])))

    def test_microburst_hosts_of_a_run(self):
        observed = {}
        result = (Scenario("dumbbell", seed=3, hosts_per_side=2,
                           link_rate_bps=mbps(10))
                  .tpp("monitor", MICROBURST_TPP_SOURCE, num_hops=6,
                       filter=PacketFilter(protocol="udp"),
                       aggregator=MicroburstAggregator)
                  .collect(on_tpp=record_queue_samples(observed))
                  .workload("messages", offered_load=0.3, message_bytes=2000)
                  .run(duration_s=0.1))
        aggregators = result.aggregators("monitor")
        assert set(observed) <= set(aggregators)
        assert sum(map(len, observed.values())) > 100
        for host, aggregator in aggregators.items():
            assert summary_jsonable(aggregator.summarize()) == summary_jsonable(
                rebuild_microburst(aggregator, observed.get(host, [])))

    def test_controller_after_every_tick(self):
        experiment = controller_experiment()
        controller, ticks = experiment.remediation, []
        real_tick = controller._tick

        def checked_tick():
            real_tick()
            ticks.append((controller.sim.now, controller.loss_penalty(),
                          controller.worst_tor_diversity()))
            assert summary_jsonable(controller.summarize()) \
                == summary_jsonable(rebuild_controller(controller, ticks))

        controller.stop()                   # re-arm the loop on the wrapper
        controller._tick = checked_tick
        controller.start()
        experiment.run(0.2)
        assert len(ticks) >= 3 and controller.links_disabled == 1


class TestSnapshotIsolation:
    @pytest.mark.parametrize("name", sorted(AGGREGATORS))
    def test_later_tpps_never_show_through_a_snapshot(self, name):
        cls, source, values_per_hop, rebuild = AGGREGATORS[name]
        rng, clock, aggregator = random.Random(5), 0.0, cls("h0")
        observed = {}
        for _ in range(10):
            clock = feed(aggregator, source, values_per_hop, rng, clock,
                         observed)
        snapshot = aggregator.summarize()
        rendered = summary_jsonable(snapshot)
        for _ in range(10):
            clock = feed(aggregator, source, values_per_hop, rng, clock,
                         observed)
        later = aggregator.summarize()
        assert summary_jsonable(snapshot) == rendered
        assert summary_jsonable(later) != rendered
        # ... and the other way round: folding into a handed-out snapshot
        # (what a collector does) must not reach the aggregator's state.
        snapshot.merge(later)
        assert summary_jsonable(aggregator.summarize()) \
            == summary_jsonable(rebuild(aggregator, observed.get("h9", [])))

    def test_later_ticks_never_show_through_a_controller_snapshot(self):
        experiment = controller_experiment()
        controller = experiment.remediation
        experiment.sim.run(until=0.05)
        snapshot = controller.summarize()
        rendered = summary_jsonable(snapshot)
        assert snapshot["counters"]["ticks"] >= 1
        experiment.sim.run(until=0.1)
        assert controller.summarize()["counters"]["ticks"] \
            > snapshot["counters"]["ticks"]
        assert summary_jsonable(snapshot) == rendered

    def test_unpushed_sketch_bits_stay_out_of_the_collector_view(self):
        # The aliasing bug: summarize() used to ship the live bitmaps, so in
        # cumulative mode the pushed snapshot and shard state changed with
        # every later on_tpp — without any push.
        plane = CollectPlane(2)
        door = plane.front_door("sketch")
        aggregator = SketchAggregator("h0", bits=64)

        def deliver(src):
            tpp = compile_tpp(SKETCH_TPP_SOURCE, num_hops=4).clone_tpp()
            push(tpp, 1)
            push(tpp, 2)
            tpp.advance_hop()
            aggregator.on_tpp(tpp, udp_packet(src, "h9", 100))

        deliver("h1")
        snapshot = aggregator.summarize()
        door.submit("h0", snapshot, time=0.0)
        (sketch,) = door.merged_summary().parts.values()
        assert sketch.set_bits() == 1
        pushed = summary_jsonable(door.merged_summary())
        handed = summary_jsonable(snapshot)
        deliver("h2")
        deliver("h3")
        assert summary_jsonable(door.merged_summary()) == pushed
        assert summary_jsonable(snapshot) == handed
        door.submit("h0", aggregator.summarize(), time=1.0)
        (sketch,) = door.merged_summary().parts.values()
        assert sketch.set_bits() == 3


class TestRunLengthIndependence:
    @staticmethod
    def _key_computations_per_sample(duration_s, monkeypatch):
        calls = [0]
        real = summary_module._canonical_key

        def counting(key):
            calls[0] += 1
            return real(key)

        scenario = (Scenario("dumbbell", seed=3, hosts_per_side=2,
                             link_rate_bps=mbps(10))
                    .tpp("monitor", MICROBURST_TPP_SOURCE, num_hops=6,
                         filter=PacketFilter(protocol="udp"),
                         aggregator=MicroburstAggregator)
                    .workload("messages", offered_load=0.3, message_bytes=2000)
                    .collector(shards=4, epoch_s=0.01, tree=2, delta=True))
        with monkeypatch.context() as patch:
            patch.setattr(summary_module, "_canonical_key", counting)
            result = scenario.run(duration_s=duration_s)
            summary_jsonable(result.merged_summary("monitor"))
        samples = sum(summary["counters"]["samples"] for summary
                      in result.summaries("monitor").values())
        assert result.summary_delta_applied > 0 and samples > 100
        return calls[0] / samples

    def test_key_computations_per_sample_do_not_grow_with_duration(
            self, monkeypatch):
        # At the parent commit this read 85 -> 828 computations per sample
        # (9.7x): every out-of-order add re-sorted the whole list and every
        # epoch re-added every sample.
        short = self._key_computations_per_sample(0.15, monkeypatch)
        long = self._key_computations_per_sample(0.6, monkeypatch)
        assert long <= 1.25 * short, (short, long)


class TestSeriesReadKeysOnce:
    """A read keys each not-yet-canonical sample once, and a tail that
    interleaves the canonical prefix keys the prefix once more, never the
    tail twice; the order stays a stable sort of the insertion order.
    ``as_dict`` keys each sample once and renders that order."""

    def test_reads_key_each_sample_once_and_sort_stably(self, monkeypatch):
        calls = [0]
        real = summary_module._canonical_key

        def counting(key):
            calls[0] += 1
            return real(key)

        monkeypatch.setattr(summary_module, "_canonical_key", counting)
        rng = random.Random(7)
        # (1, 2) == (True, 2) but their reprs differ: equal keys, other rows.
        keys = ["a", "b", 3, (1, 2), (True, 2), None]
        series, added = SeriesSummary(), []
        for _ in range(40):
            prefix = len(added)
            for _ in range(rng.randrange(1, 30)):
                sample = (rng.randrange(6) * 0.5, rng.choice(keys),
                          rng.randrange(3))
                series.add(*sample)
                added.append(sample)
            calls[0] = 0
            got = series.samples
            assert calls[0] <= len(added) - prefix + 1 or calls[0] == len(added)
            expected = sorted(added, key=lambda s: (s[0], real(s[1]), s[2]))
            assert list(map(repr, got)) == list(map(repr, expected))
            calls[0] = 0
            assert series.samples is got and calls[0] == 0
            rows = series.as_dict()["samples"]
            assert calls[0] == len(added)
            assert repr(rows) == repr([[t, real(k), v] for t, k, v in got])
