"""Tests for the sharded collection plane (repro.collect, §4.5).

Covers the mergeable-summary monoids, shard batching/epoch/backpressure
behaviour, tail drop and its accounting identity, the
delta-channel wire format (gap detection, resync, bytes-on-wire
regression), the aggregation tree, virtual-IP routing and the
order-independent merge, the Scenario integration and its declare-time
knob checks, the end-to-end
truncation accounting chain, the push schedule (the experiment is the
only pusher), and the differential guarantees: a single-shard inline plane
gives every app scenario the same result as a run without a plane, and
merged views are byte-identical across {cumulative, delta} x {flat, tree}
configurations.
"""

import functools
import json
import random

import pytest
from hypothesis import given, strategies as st

from repro.collect import (CollectPlane, CollectorShard, CounterSummary,
                           DeltaChannel, DeltaDecoder, HistogramSummary,
                           SeriesSummary, Submission, SummaryBundle,
                           TopKSummary, TreeSpec, fold,
                           merge_summaries, shard_index, summary_jsonable)
from repro.endhost import PacketFilter
from repro.net import mbps
from repro.session import Scenario


def counter(**counts):
    return CounterSummary(dict(counts))


class TestSummaryMonoids:
    def test_counter_merge_adds(self):
        a = counter(x=2, y=1)
        a.merge(counter(x=3, z=5))
        assert a.counts == {"x": 5, "y": 1, "z": 5}
        assert a["x"] == 5 and a.get("missing", 7) == 7 and "z" in a

    def test_histogram_buckets_and_merge(self):
        h = HistogramSummary((0, 2, 4))
        for value in (0, 1, 2, 3, 4, 5):
            h.observe(value)
        assert h.bins == [1, 2, 2, 1]          # <=0, (0,2], (2,4], >4
        other = HistogramSummary((0, 2, 4))
        other.observe(10, n=3)
        h.merge(other)
        assert h.bins == [1, 2, 2, 4] and h.count == 9
        with pytest.raises(ValueError):
            h.merge(HistogramSummary((0, 1)))

    def test_histogram_total_stays_exact_across_the_int_fast_path(self):
        # Ints accumulate as an int; the first non-int promotes to Fraction.
        # Either way the value equals an all-rational accumulation exactly.
        from fractions import Fraction
        values = (3, 0, 7, 2**70, 1)
        fast, exact = HistogramSummary((0, 2, 4)), Fraction(0)
        for value in values:
            fast.observe(value, n=2)
            exact += Fraction(value) * 2
        assert type(fast._total) is int and fast._total == exact
        before = fast.copy()
        for value in (0.1, 5, 0.2):
            fast.observe(value)
            exact += Fraction(value)
        assert type(fast._total) is Fraction and fast._total == exact
        assert fast.total == float(exact) and fast.mean() == float(exact / 13)
        replayed = before.copy()            # int base, Fraction target
        replayed.apply_delta(fast.diff(before))
        assert replayed == fast and replayed.as_dict() == fast.as_dict()
        before.merge(fast)                  # int + Fraction merges exactly
        assert before._total == exact + sum(values) * 2

    def test_topk_is_exact_underneath(self):
        t = TopKSummary(k=2)
        for key, n in (("a", 5), ("b", 3), ("c", 9), ("d", 1)):
            t.observe(key, n)
        assert t.top() == [("c", 9), ("a", 5)]
        assert t.top(4) == [("c", 9), ("a", 5), ("b", 3), ("d", 1)]
        t.merge(TopKSummary(k=2, counts={"d": 100}))
        assert t.top(1) == [("d", 101)]        # merge never lost the tail

    def test_topk_tie_break_is_deterministic(self):
        t = TopKSummary(k=3, counts={"b": 2, "a": 2, "c": 2})
        assert t.top() == [("a", 2), ("b", 2), ("c", 2)]

    def test_series_merge_is_canonical(self):
        a = SeriesSummary([(0.2, "q", 1), (0.1, "q", 2)])
        b = SeriesSummary([(0.15, "r", 3)])
        a.merge(b)
        assert a.samples == [(0.1, "q", 2), (0.15, "r", 3), (0.2, "q", 1)]
        assert a.series("q") == [(0.1, 2), (0.2, 1)]
        assert a.keys() == ["q", "r"]

    def test_bundle_merges_keywise_and_clones_missing(self):
        a = SummaryBundle({"c": counter(n=1)})
        b = SummaryBundle({"c": counter(n=2), "h": HistogramSummary((1,))})
        a.merge(b)
        assert a["c"].counts == {"n": 3}
        assert "h" in a
        b["h"].observe(0)                       # mutating b must not leak into a
        assert a["h"].count == 0

    @pytest.mark.parametrize("make", [
        lambda rng: counter(**{f"k{rng.randrange(4)}": rng.randrange(10)}),
        lambda rng: TopKSummary(k=3, counts={f"k{rng.randrange(6)}": rng.randrange(9) + 1}),
        lambda rng: SeriesSummary([(rng.random(), f"q{rng.randrange(3)}", rng.randrange(5))]),
    ])
    def test_merge_is_commutative_and_associative(self, make):
        rng = random.Random(7)
        for _ in range(20):
            a, b, c = make(rng), make(rng), make(rng)
            assert merge_summaries(a, b) == merge_summaries(b, a)
            assert merge_summaries(merge_summaries(a, b), c) == \
                merge_summaries(a, merge_summaries(b, c))

    def test_merge_summaries_leaves_inputs_alone(self):
        a, b = counter(x=1), counter(x=2)
        merged = merge_summaries(a, b)
        assert merged.counts == {"x": 3}
        assert a.counts == {"x": 1} and b.counts == {"x": 2}

    def test_jsonable_views_are_canonical(self):
        bundle = SummaryBundle({"z": counter(b=1, a=2), "a": TopKSummary(k=1)})
        rendered = summary_jsonable(bundle)
        assert list(rendered["parts"]) == ["a", "z"]
        assert list(rendered["parts"]["z"]["counts"]) == ["a", "b"]


#: One fixed histogram geometry so every generated histogram is mergeable.
_HIST_EDGES = (0, 4, 16, 64)

_keys = st.sampled_from(["a", "b", "c", "d", "e"])
_counters = st.dictionaries(_keys, st.integers(0, 1_000), max_size=5) \
    .map(CounterSummary)
_histograms = st.lists(st.integers(0, 128), max_size=12).map(
    lambda values: _observe_all(HistogramSummary(_HIST_EDGES), values))
_topks = st.dictionaries(_keys, st.integers(1, 500), max_size=5) \
    .map(lambda counts: TopKSummary(k=3, counts=dict(counts)))
_series = st.lists(st.tuples(st.integers(0, 50), _keys, st.integers(0, 99)),
                   max_size=10) \
    .map(lambda rows: SeriesSummary([(t / 10.0, key, v) for t, key, v in rows]))
_summaries = st.one_of(_counters, _histograms, _topks, _series)

#: Bundles type their parts by name (as real apps do: one part key, one
#: summary kind), so cross-bundle merges always pair like with like.
_bundles = st.fixed_dictionaries(
    {}, optional={"counters": _counters, "occupancy": _histograms,
                  "busiest": _topks, "series": _series}).map(SummaryBundle)


def _observe_all(histogram, values):
    for value in values:
        histogram.observe(value)
    return histogram


def _view(summary):
    return json.dumps(summary_jsonable(summary), sort_keys=True)


class TestMergeCommutativityProperties:
    """Hypothesis: the monoid laws hold for *arbitrary* summaries.

    The example-based monoid tests above pin specific behaviours; these
    properties are what the sharded collect plane and the sweep layer's
    order-invariant artifacts actually rely on — ``merge`` must commute,
    associate, and be partition-invariant for every value the generators
    can produce, integer-exact (canonical views compare byte-equal).
    """

    @given(a=_summaries, b=_summaries)
    def test_merge_commutes(self, a, b):
        if type(a) is not type(b):
            return                              # only like merges with like
        assert _view(merge_summaries(a, b)) == _view(merge_summaries(b, a))

    @given(a=_summaries, b=_summaries, c=_summaries)
    def test_merge_associates(self, a, b, c):
        if not (type(a) is type(b) is type(c)):
            return
        left = merge_summaries(merge_summaries(a, b), c)
        right = merge_summaries(a, merge_summaries(b, c))
        assert _view(left) == _view(right)

    @given(a=_summaries)
    def test_empty_is_identity(self, a):
        if isinstance(a, HistogramSummary):
            empty = HistogramSummary(_HIST_EDGES)   # same bucket geometry
        elif isinstance(a, TopKSummary):
            empty = TopKSummary(k=a.k)              # same k
        else:
            empty = type(a)()
        assert _view(merge_summaries(a, empty)) == _view(a)
        assert _view(merge_summaries(empty, a)) == _view(a)

    @given(bundles=st.lists(_bundles, min_size=1, max_size=8),
           shards=st.integers(1, 4), rotate=st.integers(0, 7))
    def test_sharded_fold_matches_serial_fold(self, bundles, shards, rotate):
        """Partitioning across shards and re-ordering never changes the fold."""
        serial = SummaryBundle()
        for bundle in bundles:
            serial.merge(bundle)

        rotated = bundles[rotate % len(bundles):] + bundles[:rotate % len(bundles)]
        per_shard = [SummaryBundle() for _ in range(shards)]
        for index, bundle in enumerate(rotated):
            per_shard[index % shards].merge(bundle)
        sharded = SummaryBundle()
        for shard in per_shard:
            sharded.merge(shard)

        assert _view(sharded) == _view(serial)


def submission(seq, host="h0", key="", app="app", time=0.0, summary=None):
    return Submission(time=time, seq=seq, app=app, host=host, key=key,
                      summary=summary if summary is not None else counter(n=1))


class TestCollectorShard:
    def test_batch_fill_triggers_a_flush(self):
        shard = CollectorShard(0, batch=3)
        for seq in range(5):
            shard.ingest(submission(seq, host=f"h{seq}"))
        assert shard.batch_flushes == 1
        assert len(shard.pending) == 2          # the partial next batch
        assert len(shard.state) == 3

    def test_capacity_drops_are_accounted(self):
        shard = CollectorShard(0, batch=100, capacity=2)
        accepted = [shard.ingest(submission(seq, host=f"h{seq}")) for seq in range(5)]
        assert accepted == [True, True, False, False, False]
        assert shard.dropped == 3 and shard.received == 2

    def test_last_writer_wins_per_source(self):
        shard = CollectorShard(0, batch=100)
        shard.ingest(submission(0, time=1.0, summary=counter(n=5)))
        shard.ingest(submission(1, time=2.0, summary=counter(n=9)))
        shard.ingest(submission(2, host="h1", time=1.5, summary=counter(n=2)))
        shard.flush()
        view = shard.merged_view()
        # h0's newest snapshot (n=9) replaces its older one; h1 merges in.
        assert view[("app", "")] == counter(n=11)
        assert shard.stale_replaced == 1

    def test_late_stale_snapshot_does_not_regress(self):
        shard = CollectorShard(0, batch=100)
        shard.ingest(submission(1, time=2.0, summary=counter(n=9)))
        shard.flush()
        shard.ingest(submission(0, time=1.0, summary=counter(n=5)))
        shard.flush()
        assert shard.merged_view()[("app", "")] == counter(n=9)

    def test_merged_view_copies_state(self):
        shard = CollectorShard(0, batch=100)
        shard.ingest(submission(0, summary=counter(n=1)))
        shard.flush()
        view = shard.merged_view()
        view[("app", "")].add("n", 100)
        assert shard.merged_view()[("app", "")] == counter(n=1)


class TestVirtualCollector:
    def test_routing_is_stable_and_total(self):
        for count in (1, 2, 4, 8):
            for host in ("h0", "h1", "h2"):
                index = shard_index("app", host, "key", count)
                assert 0 <= index < count
                assert index == shard_index("app", host, "key", count)

    def test_front_door_counts_submissions_and_keeps_no_log(self):
        plane = CollectPlane(2)
        door = plane.front_door("app", name="c")
        door.submit("h1", counter(n=1), time=0.25)
        door.submit("h0", counter(n=2), time=0.50)
        assert door.name == "c" and door.submitted == 2
        assert plane.counters()["summaries_submitted"] == 2
        assert not hasattr(door, "summaries")
        assert door.merged_summary() == counter(n=3)

    @pytest.mark.parametrize("epoch_s", [float("nan"), float("inf"), 0.0])
    def test_plane_rejects_a_non_finite_or_zero_epoch(self, epoch_s):
        # The plane and the scenario's CollectorSpec share one check.
        with pytest.raises(ValueError, match="epoch_s must be finite"):
            CollectPlane(2, epoch_s=epoch_s)

    def test_duplicate_front_door_rejected(self):
        plane = CollectPlane(1)
        plane.front_door("app")
        with pytest.raises(ValueError):
            plane.front_door("app")

    @staticmethod
    def _workload(rng):
        """A deterministic batch of keyed bundle submissions."""
        out = []
        for host in (f"h{i}" for i in range(6)):
            bundle = SummaryBundle({
                "counters": counter(tpps=rng.randrange(50), tpps_truncated=rng.randrange(3)),
                "top": TopKSummary(k=4, counts={f"q{rng.randrange(5)}": rng.randrange(9) + 1}),
            })
            out.append((host, bundle, rng.random()))
        return out

    def test_merge_is_invariant_across_shard_counts_and_orders(self):
        reference = None
        for shards in (1, 2, 4, 8):
            for order_seed in (0, 1):
                plane = CollectPlane(shards, batch=2)
                door = plane.front_door("app")
                work = self._workload(random.Random(42))
                random.Random(order_seed).shuffle(work)
                for host, bundle, when in work:
                    door.submit(host, bundle, time=when)
                merged = {f"{app}/{key}": summary_jsonable(s)
                          for (app, key), s in plane.merge().items()}
                if reference is None:
                    reference = merged
                assert merged == reference, (shards, order_seed)
        assert set(reference) == {"app/counters", "app/top"}

    def test_merged_summary_unkeyed_vs_bundle(self):
        plane = CollectPlane(2)
        door = plane.front_door("plain")
        door.submit("h0", counter(n=1))
        door.submit("h1", counter(n=2))
        assert door.merged_summary() == counter(n=3)

        keyed = plane.front_door("keyed")
        keyed.submit("h0", SummaryBundle({"a": counter(n=1)}))
        view = keyed.merged_summary()
        assert isinstance(view, SummaryBundle) and view["a"] == counter(n=1)

    def test_network_transport_requires_attach(self):
        plane = CollectPlane(1, transport="network")
        door = plane.front_door("app")
        with pytest.raises(RuntimeError):
            door.submit("h0", counter(n=1))


def monitored_scenario(shards=None, seed=3, **collector_kwargs):
    """A dumbbell scenario whose app produces real mergeable summaries."""
    from repro.apps.microburst import MICROBURST_TPP_SOURCE, MicroburstAggregator
    scenario = (Scenario("dumbbell", seed=seed, hosts_per_side=2,
                         link_rate_bps=mbps(10))
                .tpp("monitor", MICROBURST_TPP_SOURCE, num_hops=6,
                     filter=PacketFilter(protocol="udp"),
                     aggregator=MicroburstAggregator)
                .workload("messages", offered_load=0.3, message_bytes=2000))
    if shards is not None:
        scenario.collector(shards=shards, **collector_kwargs)
    return scenario


class TestScenarioIntegration:
    def test_collector_spec_validation_is_eager(self):
        with pytest.raises(ValueError):
            Scenario("dumbbell").collector(shards=0)
        with pytest.raises(ValueError):
            Scenario("dumbbell").collector(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            Scenario("dumbbell").collector(epoch_s=0)
        with pytest.raises(ValueError):
            Scenario("dumbbell").collector(batch=0)
        with pytest.raises(ValueError):
            Scenario("dumbbell").collector(tree=1)       # fan-in must be >= 2

    @pytest.mark.parametrize("knob,value", [
        ("delta", "no"), ("delta", 1), ("epoch_s", True), ("epoch_s", "1"),
        ("hosts", "h0"), ("hosts", [])])
    def test_silently_accepted_knobs_fail_at_declaration(self, knob, value):
        # delta="no" used to turn deltas on (bool("no")), epoch_s=True ran
        # 1 s epochs, epoch_s="1" raised a bare TypeError, hosts="h0"
        # became ['h', '0'] and failed at build with KeyError: 'h', and
        # hosts=[] read as unset and placed the shards on every host.
        with pytest.raises(ValueError, match=knob):
            Scenario("dumbbell").collector(shards=2, **{knob: value})

    def test_plane_and_spec_share_the_knob_checks(self):
        with pytest.raises(ValueError, match="hosts"):
            CollectPlane(2, shard_hosts="h0")
        with pytest.raises(ValueError, match="hosts"):
            CollectPlane(2, shard_hosts=[])
        with pytest.raises(ValueError, match="delta"):
            CollectPlane(2, delta="no")
        # An int epoch is a number, not a flag: still accepted.
        assert Scenario("dumbbell").collector(epoch_s=1).spec.collector.epoch_s == 1
        assert CollectPlane(1, epoch_s=1).epoch_s == 1

    def test_unknown_collector_host_is_named_at_build(self):
        scenario = (Scenario("dumbbell", hosts_per_side=2)
                    .collector(shards=2, hosts=["h0", "h9"]))
        with pytest.raises(ValueError, match=r"hosts \['h9'\]"):
            scenario.build()

    def test_collector_spec_normalises_streaming_knobs(self):
        spec = (Scenario("dumbbell")
                .collector(shards=4, tree=2, delta=True)
                .spec.collector)
        assert spec.tree == TreeSpec(fanin=2)
        assert spec.delta is True

    def test_plane_telemetry_lands_on_the_result(self):
        result = monitored_scenario(shards=2).run(duration_s=0.1)
        assert result.collect_shards == 2
        # One finish-time push per host, four bundle parts per summary.
        hosts = len(result.stacks)
        assert result.summaries_submitted == hosts
        assert result.summary_parts_delivered == 4 * hosts
        assert result.summary_parts_dropped == 0
        assert result.summary_flushes >= 1
        assert result.experiment.collect_plane is not None

    def test_merged_summary_needs_no_plane(self):
        # Without a plane the result folds the hosts' snapshots itself; a
        # plane that dropped nothing reconstructs the very same view.
        plain = monitored_scenario().run(duration_s=0.05)
        sharded = monitored_scenario(shards=3, tree=2).run(duration_s=0.05)
        assert plain.experiment.collect_plane is None
        assert sharded.events_executed == plain.events_executed
        merged = plain.merged_summary("monitor")
        assert merged["counters"]["tpps"] == plain.tpps_received > 0
        assert _view(merged) == _view(sharded.merged_summary("monitor"))

    def test_merged_view_matches_unsharded_totals(self):
        plain = monitored_scenario().run(duration_s=0.2)
        per_host = plain.summaries("monitor").values()
        for shards in (1, 3):
            sharded = monitored_scenario(shards=shards).run(duration_s=0.2)
            assert sharded.events_executed == plain.events_executed
            merged = sharded.merged_summary("monitor")
            assert merged["counters"]["tpps"] == plain.tpps_received
            assert merged["counters"]["samples"] == \
                sum(len(s["queue_series"]) for s in per_host) > 0
            # The merged series is the canonical interleave of every host's.
            assert len(merged["queue_series"]) == merged["counters"]["samples"]

    def test_epoch_pushes_stamp_simulation_time(self):
        result = monitored_scenario(shards=2, epoch_s=0.05).run(duration_s=0.2)
        door = result.collectors["monitor"]
        plane = result.experiment.collect_plane
        assert door.submitted >= 3 * len(result.stacks)  # several epoch rounds
        assert any(submission.time > 0 for shard in plane.shards
                   for submission in shard.state.values())
        assert plane.counters()["epoch_flushes"] >= 1
        # Per-source snapshots are cumulative: the merged view reflects the
        # final state, not the sum of every epoch's submission.
        merged = result.merged_summary("monitor")
        assert merged["counters"]["tpps"] == result.tpps_received

    def test_network_transport_ships_summary_packets(self):
        result = monitored_scenario(shards=2, transport="network",
                                    epoch_s=0.05).run(duration_s=0.2,
                                                      run_until_idle=True)
        plane = result.experiment.collect_plane
        assert plane.packets_sent > 0
        delivered = sum(shard.received for shard in plane.shards)
        assert delivered > 0
        merged = result.merged_summary("monitor")
        assert merged["counters"]["tpps"] > 0

    def test_backpressure_drops_are_surfaced(self):
        # batch=None defers folding to epoch boundaries — the configuration
        # where the capacity bound actually engages between flushes.
        result = monitored_scenario(shards=1, epoch_s=0.02, batch=None,
                                    capacity=3).run(duration_s=0.2)
        assert result.summary_parts_dropped > 0
        assert result.summary_parts_delivered <= 3 * result.summary_flushes + 3

    def test_empty_flush_ticks_are_not_counted(self):
        shard = CollectorShard(0, batch=None)
        assert shard.flush(kind="epoch") == 0
        assert shard.flushes == 0 and shard.epoch_flushes == 0
        shard.ingest(submission(0))
        assert shard.flush(kind="epoch") == 1
        assert shard.flushes == 1 and shard.epoch_flushes == 1

def _record_epoch_ticks(experiment):
    """Setup hook: log every epoch tick's time, independent of the pusher."""
    experiment.collect_plane.on_epoch(experiment.extras.setdefault("ticks", []).append)


def _record_probe_pushes(experiment):
    """Setup hook: log every (host, time) the probe app's front door is
    handed, by wrapping its ``submit``."""
    door = experiment.collectors["probe"]
    log = experiment.extras.setdefault("probe_pushes", [])
    submit = door.submit

    def logged(host_name, summary, time=0.0):
        log.append((host_name, time))
        submit(host_name, summary, time)

    door.submit = logged


def push_schedule_scenario(plane=True):
    """Two apps (all six hosts / two receivers)."""
    from repro.apps.microburst import MICROBURST_TPP_SOURCE, MicroburstAggregator
    scenario = (Scenario("dumbbell", seed=3, link_rate_bps=mbps(10))
                .tpp("monitor", MICROBURST_TPP_SOURCE, num_hops=6,
                     filter=PacketFilter(protocol="udp"),
                     aggregator=MicroburstAggregator)
                .tpp("probe", "PUSH [Switch:SwitchID]", receivers=["h4", "h5"],
                     filter=PacketFilter(protocol="udp", dst="h5"), priority=1,
                     collector="probe-door")
                .workload("messages", offered_load=0.3, message_bytes=2000))
    if plane:
        (scenario.collector(shards=2, epoch_s=0.03)
         .setup(_record_epoch_ticks).setup(_record_probe_pushes))
    return scenario


class TestPushSchedule:
    """The experiment is the only pusher: every receiving host's snapshot
    at each epoch tick and once at finish — an oracle built from epoch
    ticks and receivers, not push counters."""

    def test_one_round_per_tick_plus_one_at_finish(self):
        result = push_schedule_scenario().run(duration_s=0.1)
        ticks = result.extras["ticks"]
        rounds = len(ticks) + 1
        receivers = sum(len(result.aggregators(app)) for app in result.apps)
        assert len(ticks) >= 2 and receivers == 6 + 2
        assert result.summaries_submitted == rounds * receivers
        assert sorted(result.collectors) == sorted(result.apps)
        # The probe app's front door is handed exactly its pushes: hosts in
        # sorted order, each round stamped with its tick (then the finish).
        door, pushes = result.collectors["probe"], result.extras["probe_pushes"]
        assert door.name == "probe-door" and door.submitted == len(pushes)
        assert [host for host, _ in pushes] == ["h4", "h5"] * rounds
        stamps = [time for _, time in pushes]
        assert stamps[::2] == stamps[1::2] == [*ticks, result.end_time_s]

    def test_no_plane_pushes_nothing(self):
        result = push_schedule_scenario(plane=False).run(duration_s=0.1)
        assert result.summaries_submitted == 0
        assert result.collectors == {}
        assert result.collector("probe") is None
        # The result still folds the hosts' snapshots itself.
        assert result.merged_summary("probe")["tpps"] \
            == sum(a.tpps_received for a in result.aggregators("probe").values()) > 0


class TestTruncationAccounting:
    """Satellite: packet-memory overrun is visible at every layer."""

    def test_switch_shim_and_collector_agree(self):
        # One hop of room, two-switch cross-side paths: the second switch
        # must skip with SKIPPED_PACKET_FULL.
        result = (Scenario("dumbbell", seed=5, hosts_per_side=2,
                           link_rate_bps=mbps(10))
                  .tpp("trunc", "PUSH [Switch:SwitchID]", num_hops=1,
                       filter=PacketFilter(protocol="udp"))
                  .collector(shards=2)
                  .workload("messages", offered_load=0.3, message_bytes=2000)
                  .run(duration_s=0.2))

        # Switch layer: SKIPPED_PACKET_FULL hops were counted where they
        # happened (any switch that was a second hop).
        full_hops = {name: switch.tpps_packet_full
                     for name, switch in result.network.switches.items()}
        assert sum(full_hops.values()) > 0
        assert sum(full_hops.values()) >= result.tpps_truncated

        # Shim/aggregator layer: TPP.out_of_room rolled up per host.
        assert result.tpps_truncated > 0
        assert result.tpps_truncated == sum(
            a.tpps_truncated for a in result.aggregators("trunc").values())

        # Collector tier: per shard, and after the global merge.
        plane = result.experiment.collect_plane
        per_shard_total = 0
        for shard in plane.shards:
            view = shard.merged_view()
            per_shard_total += sum(summary["tpps_truncated"]
                                   for _, summary in view.items())
        assert per_shard_total == result.tpps_truncated
        merged = result.merged_summary("trunc")
        assert merged["tpps_truncated"] == result.tpps_truncated


class TestSingleShardDifferential:
    """A shards=1 inline plane gives every app the result of a run without
    a plane."""

    @staticmethod
    def _with_plane(scenario):
        return scenario.collector(shards=1, transport="inline")

    def test_microburst(self):
        from repro.apps.microburst import microburst_scenario
        kwargs = dict(link_rate_bps=mbps(10), offered_load=0.4, seed=3)
        legacy = microburst_scenario(**kwargs).run(duration_s=0.25)
        sharded = self._with_plane(microburst_scenario(**kwargs)).run(duration_s=0.25)
        assert legacy == sharded                 # full dataclass equality

    def test_netsight(self):
        from repro.apps.netsight import netsight_scenario
        kwargs = dict(link_rate_bps=mbps(10), seed=2)
        legacy = netsight_scenario(**kwargs).run(duration_s=0.2)
        sharded = self._with_plane(netsight_scenario(**kwargs)).run(duration_s=0.2)

        def fingerprint(history):
            # flow_id and matched_entry_id are allocated from process-global
            # counters, so they shift between *any* two runs in one process;
            # everything semantically tied to the run must match exactly.
            return (history.src, history.dst, history.protocol, history.sport,
                    history.dport, history.delivered_at,
                    [(hop.switch_id, hop.input_port) for hop in history.hops])

        assert [fingerprint(h) for h in legacy.store.histories] == \
            [fingerprint(h) for h in sharded.store.histories]
        assert legacy.packets_instrumented == sharded.packets_instrumented
        assert legacy.histories_collected == sharded.histories_collected

    def test_sketches(self):
        from repro.apps.sketches import sketch_scenario
        kwargs = dict(num_leaves=2, num_spines=1, hosts_per_leaf=2, seed=2)
        legacy = sketch_scenario(**kwargs).run(duration_s=0.4)
        sharded = self._with_plane(sketch_scenario(**kwargs)).run(duration_s=0.4)
        assert legacy.estimates == sharded.estimates
        assert legacy.host_memory_bytes == sharded.host_memory_bytes
        assert legacy.packets_instrumented == sharded.packets_instrumented
        # The merged per-link bitmaps are bit-identical with or without a tier.
        assert {key: bytes(sketch.bitmap) for key, sketch in legacy.bitmaps.items()} \
            == {key: bytes(sketch.bitmap) for key, sketch in sharded.bitmaps.items()}
        assert legacy.total_memory_bytes() == sharded.total_memory_bytes() > 0

    def test_rcp(self):
        from repro.apps.rcp import ALPHA_MAXMIN, rcp_scenario
        kwargs = dict(alpha=ALPHA_MAXMIN, link_rate_bps=mbps(10))
        legacy = rcp_scenario(**kwargs).run(duration_s=1.0)
        sharded = self._with_plane(rcp_scenario(**kwargs)).run(duration_s=1.0)
        assert legacy.mean_throughput_bps == sharded.mean_throughput_bps
        assert legacy.control_overhead_fraction == sharded.control_overhead_fraction
        for flow in legacy.throughput_series:
            assert legacy.throughput_series[flow].values == \
                sharded.throughput_series[flow].values

    def test_conga(self):
        from repro.apps.conga import conga_scenario
        legacy = conga_scenario("conga", link_rate_bps=mbps(10)).run(duration_s=1.0)
        sharded = self._with_plane(conga_scenario("conga", link_rate_bps=mbps(10))) \
            .run(duration_s=1.0)
        assert legacy == sharded                 # full dataclass equality

    def test_netverify(self):
        from repro.apps.netverify import verification_scenario
        legacy = verification_scenario().run(duration_s=0.35)
        sharded = self._with_plane(verification_scenario()).run(duration_s=0.35)
        assert legacy.pre_failure.matches == sharded.pre_failure.matches
        assert legacy.convergence.convergence_seconds == \
            sharded.convergence.convergence_seconds
        assert legacy.probes_sent == sharded.probes_sent
        assert [o.time for o in legacy.observations] == \
            [o.time for o in sharded.observations]


class TestTailDrop:
    """Backpressure: a full buffer rejects the arrival, counted by reason."""

    def test_drop_newest_is_the_default_tail_drop(self):
        shard = CollectorShard(0, batch=None, capacity=2)
        accepted = [shard.ingest(submission(seq, host=f"h{seq}"))
                    for seq in range(5)]
        assert accepted == [True, True, False, False, False]
        assert shard.drops_by_policy == {"drop-newest": 3}
        assert [s.seq for s in shard.pending] == [0, 1]

    def test_every_drop_reason_reports_zero_included(self):
        # The snapshot's key set does not depend on what a run dropped.
        drops = {name: count for name, count in CollectPlane(2).counters().items()
                 if name.startswith("drops.")}
        assert drops == {"drops.drop-newest": 0, "drops.delta-gap": 0}

    def test_drops_by_policy_mirrors_totals(self):
        # drops_by_policy plays the role Port.drops_by_reason plays on the
        # network layer: the breakdown always sums to the scalar total.
        shard = CollectorShard(0, batch=None, capacity=1)
        for seq in range(7):
            shard.ingest(submission(seq, host=f"h{seq % 2}"))
        assert sum(shard.drops_by_policy.values()) == shard.dropped == 6
        assert shard.counters()["dropped"] == 6
        assert shard.counters()["drops.drop-newest"] == 6

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           capacity=st.integers(min_value=1, max_value=6))
    def test_accounting_identity_per_shard(self, seed, capacity):
        # submitted == delivered + dropped + pending at every instant, and
        # == delivered + dropped after the final flush, under any arrival
        # sequence.
        rng = random.Random(seed)
        shard = CollectorShard(0, batch=None, capacity=capacity)
        for seq in range(rng.randrange(1, 40)):
            shard.ingest(submission(
                seq, host=f"h{rng.randrange(3)}",
                key=rng.choice(("hot", "cold", "warm")),
                time=rng.random()))
            assert shard.submitted == (shard.delivered + shard.dropped
                                       + len(shard.pending))
            assert len(shard.pending) <= capacity
            if rng.random() < 0.2:
                shard.flush(kind="epoch")
        shard.flush()
        assert shard.submitted == shard.delivered + shard.dropped
        assert sum(shard.drops_by_policy.values()) == shard.dropped
        assert shard.delivered <= shard.received <= shard.submitted

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           fanin=st.integers(min_value=2, max_value=4))
    def test_accounting_identity_across_plane_and_tree(self, seed, fanin):
        # The identity also holds summed across shards, and the tree merge
        # neither loses nor duplicates anything the shards delivered.
        def drive(plane):
            door = plane.front_door("app")
            rng = random.Random(seed)
            for push in range(rng.randrange(1, 15)):
                host = f"h{rng.randrange(4)}"
                door.submit(host, SummaryBundle({
                    "hot": counter(n=push + 1),
                    "cold": counter(n=1),
                }), time=float(push))
            return {k: summary_jsonable(v) for k, v in plane.merge().items()}

        plane = CollectPlane(4, batch=None, capacity=2, tree=fanin)
        merged = drive(plane)                       # merge() flushes first
        totals = plane.counters()
        assert totals["parts_routed"] == totals["delivered"] + totals["dropped"]
        assert sum(count for name, count in totals.items()
                   if name.startswith("drops.")) == totals["dropped"]
        for shard in plane.shards:
            entry = shard.counters()
            assert entry["submitted"] == entry["delivered"] + entry["dropped"]
        # Same arrivals through a flat plane: the tree must reconstruct the
        # identical view from whatever survived.
        assert merged == drive(CollectPlane(4, batch=None, capacity=2))


class TestDeltaChannel:
    """Sender/decoder unit behaviour: sequencing, gaps, resync."""

    def test_first_send_is_a_keyframe_then_deltas(self):
        channel = DeltaChannel()
        u1 = channel.encode(counter(n=1))
        u2 = channel.encode(counter(n=2))
        assert (u1.kind, u2.kind) == ("full", "delta")
        assert (u1.seq, u1.base_seq) == (1, -1)
        assert (u2.seq, u2.base_seq) == (2, 1)
        assert channel.fulls_sent == 1 and channel.deltas_sent == 1

    def test_decoder_replays_stream_exactly(self):
        channel, decoder = DeltaChannel(), DeltaDecoder()
        state = counter()
        for i in range(5):
            state.add("n", i + 1)
            decoded = decoder.decode(("g",), channel.encode(state))
            assert decoded == state
        assert decoder.applied == 4 and decoder.resyncs == 1

    def test_series_stream_ships_tails_and_keeps_its_fallbacks(self):
        channel, decoder = DeltaChannel(), DeltaDecoder()
        state = SeriesSummary()

        def push():
            unit = channel.encode(state)
            assert decoder.decode(("g",), unit) == state
            return unit

        state.add(1.0, "q", 1)
        state.add(1.0, "b", 2)              # same instant, not in key order
        assert push().kind == "full"
        state.add(2.0, "q", 3)
        unit = push()                       # base is a prefix: the tail
        assert (unit.kind, unit.payload["add"]) == ("delta", [(2.0, "q", 3)])
        state.add(2.0, "a", 4)              # ties the base's last, sorts before
        unit = push()                       # no prefix: the multiset path
        assert (unit.kind, unit.payload["add"]) == ("delta", [(2.0, "a", 4)])
        state.samples = state.samples[1:]   # lost a sample: inexpressible
        assert push().kind == "full"
        assert decoder.gaps == 0 and decoder.applied == 2

    def test_gap_discards_and_requests_resync(self):
        channel, decoder = DeltaChannel(), DeltaDecoder()
        u1 = channel.encode(counter(n=1))
        u2 = channel.encode(counter(n=2))
        u3 = channel.encode(counter(n=3))
        assert decoder.decode(("g",), u1) == counter(n=1)
        # u2 lost in transit: u3's base_seq no longer matches.
        assert decoder.decode(("g",), u3) is None
        assert decoder.gaps == 1
        assert decoder.take_resyncs() == [("g",)]
        # The plane flags the channel; the next encode is a keyframe and
        # the stream recovers exactly.
        channel.needs_full = True
        u4 = channel.encode(counter(n=9))
        assert u4.kind == "full"
        assert decoder.decode(("g",), u4) == counter(n=9)
        assert decoder.take_resyncs() == []

    def test_delta_to_unknown_channel_is_a_gap(self):
        channel, decoder = DeltaChannel(), DeltaDecoder()
        channel.encode(counter(n=1))
        orphan = channel.encode(counter(n=2))
        assert decoder.decode(("new",), orphan) is None
        assert decoder.gaps == 1 and decoder.take_resyncs() == [("new",)]

    def test_plane_nack_brings_a_keyframe(self):
        # A delta unit lost between front door and shard: the next unit is
        # a gap, the shard NACKs at the flush, and the sender's next push
        # is a cumulative keyframe that restores the exact view.
        plane = CollectPlane(1, batch=None, delta=True)
        door = plane.front_door("app")
        door.submit("h0", counter(n=1))
        door.submit("h0", counter(n=2))
        lost = plane.shards[0].pending.pop()
        assert lost.summary.kind == "delta"
        door.submit("h0", counter(n=3))
        plane.flush_all()                   # the gap is found and NACKed
        assert plane.counters()["delta_gaps"] == 1 and plane.resync_requests == 1
        door.submit("h0", counter(n=4))
        assert plane.shards[0].pending[-1].summary.kind == "full"
        assert door.merged_summary() == counter(n=4)

    def test_shard_counts_gap_drops_by_reason(self):
        channel = DeltaChannel()
        channel.encode(counter(n=1))
        orphan = channel.encode(counter(n=2))   # delta with no base delivered
        shard = CollectorShard(0, batch=None)
        shard.ingest(submission(0, summary=orphan))
        assert shard.flush() == 0
        assert shard.dropped == 1
        assert shard.drops_by_policy == {"delta-gap": 1}
        assert shard.take_resync_requests() == [("app", "h0", "")]
        # submitted == delivered + dropped still holds with gap drops.
        assert shard.submitted == shard.delivered + shard.dropped


class TestAggregationTree:
    @given(per_host=st.dictionaries(st.sampled_from([f"h{i}" for i in range(12)]),
                                    _bundles, min_size=1, max_size=12),
           shards=st.integers(1, 9),
           fanin=st.one_of(st.none(), st.integers(2, 5)))
    def test_plane_merge_is_the_serial_fold(self, per_host, shards, fanin):
        plane = CollectPlane(shards, tree=fanin)
        door = plane.front_door("app")
        for host in sorted(per_host):
            door.submit(host, per_host[host])
        merged = plane.merge()
        assert list(merged) == sorted(merged)               # (app, key) order
        serial = fold(per_host[host] for host in sorted(per_host))
        assert _view(SummaryBundle({key: summary for (_, key), summary
                                    in merged.items()})) == _view(serial)
        # Depth: one level when flat, else the least L with fanin**L >= shards.
        depth = 1
        while fanin is not None and fanin ** depth < shards:
            depth += 1
        assert plane.tree_levels == depth

    @pytest.mark.parametrize("fanin", [1, 2.5, float("nan"), True])
    def test_malformed_fanin_rejected_at_declaration(self, fanin):
        # 2.5 and NaN passed the bare ``fanin < 2`` check, and 2.5 then
        # raised TypeError while the plane was being built.
        with pytest.raises(ValueError, match="fanin"):
            Scenario("dumbbell").collector(shards=4, tree=TreeSpec(fanin=fanin))

    def test_fold_needs_a_summary(self):
        with pytest.raises(ValueError, match="zero summaries"):
            fold([])

    def test_tree_merge_matches_flat_merge(self):
        for fanin in (2, 3, 5):
            flat = CollectPlane(6)
            tree = CollectPlane(6, tree=fanin)
            for plane in (flat, tree):
                door = plane.front_door("app")
                rng = random.Random(7)
                for push in range(20):
                    door.submit(f"h{rng.randrange(5)}",
                                SummaryBundle({
                                    "c": counter(n=rng.randrange(10)),
                                    "t": TopKSummary(3, {f"k{rng.randrange(4)}": 1}),
                                }), time=float(push))
            assert {k: summary_jsonable(v) for k, v in flat.merge().items()} \
                == {k: summary_jsonable(v) for k, v in tree.merge().items()}
            assert tree.tree_levels >= 1

    def test_reading_the_merged_view_counts_nothing(self):
        # A view read is not a merge the tier performed: reading it twice
        # leaves the live counters where the result snapshot left them.
        result = monitored_scenario(shards=4, tree=2, delta=True,
                                    epoch_s=0.05).run(duration_s=0.1)
        plane = result.experiment.collect_plane
        before = plane.counters()
        assert before == {name[len("collect."):]: count for name, count
                          in result.counters.items()
                          if name.startswith("collect.")}
        result.merged_summary("monitor")
        result.merged_summary("monitor")
        assert plane.counters() == before


class TestDeltaBytesRegression:
    """Delta mode must send strictly fewer bytes on steady-state workloads."""

    def test_inline_plane_bytes_and_identity(self):
        # Standalone plane: cumulative snapshots that change little per
        # epoch.  Delta mode must (a) reconstruct the identical view and
        # (b) route strictly fewer bytes.
        def drive(plane):
            door = plane.front_door("app")
            states = {f"h{i}": counter(**{f"k{j}": j + 1 for j in range(20)})
                      for i in range(3)}
            for epoch in range(10):
                for host, state in states.items():
                    if epoch < 2:
                        state.add("hot", 1)     # burst, then steady state
                    door.submit(host, state, time=float(epoch))
            return json.dumps({f"{a}|{k}": summary_jsonable(s)
                               for (a, k), s in plane.merge().items()},
                              sort_keys=True)

        cumulative, delta = CollectPlane(2), CollectPlane(2, delta=True)
        assert drive(cumulative) == drive(delta)
        assert delta.bytes_routed < cumulative.bytes_routed
        totals = delta.counters()
        assert totals["delta_applied"] > 0 and totals["delta_gaps"] == 0

    def test_network_transport_bytes_on_wire(self):
        # The satellite regression: over the simulated fabric, the delta
        # encoding strictly undercuts cumulative re-sends, and the result
        # surfaces the byte count and replay totals.
        kwargs = dict(shards=2, transport="network", epoch_s=0.05)
        cumulative = monitored_scenario(**kwargs) \
            .run(duration_s=0.3, run_until_idle=True)
        delta = monitored_scenario(**kwargs, delta=True) \
            .run(duration_s=0.3, run_until_idle=True)
        assert cumulative.summary_bytes_on_wire > 0
        assert delta.summary_bytes_on_wire < cumulative.summary_bytes_on_wire
        assert delta.summary_delta_applied > 0
        assert delta.summary_delta_gaps == 0
        # The reconstructed view is a delivered prefix of the cumulative
        # truth (the finish-time push is never delivered over the network
        # transport — packets submitted after the clock stops are lost, in
        # either encoding).
        merged_tpps = delta.merged_summary("monitor")["counters"]["tpps"]
        assert 0 < merged_tpps <= delta.tpps_received


def _force_keyframes(experiment, every):
    """Setup hook: after each epoch's push round, flag every delta channel
    whose next send is a multiple of ``every`` for a keyframe — the
    ``needs_full`` flag a shard's NACK sets."""
    plane = experiment.collect_plane

    def flag(now):
        for channel in plane._channels.values():
            if (channel.seq + 1) % every == 0:
                channel.needs_full = True

    plane.on_epoch(flag)


class TestDeltaTreeDifferential:
    """Six-app acceptance: merged views byte-identical across
    {cumulative, delta} x {flat, 2-level tree} at 4 shards and across
    shard counts 1/2/4/8, nothing dropped.  The delta tree also takes a
    forced keyframe on every 4th send of each channel."""

    CONFIGS = (
        ("cumulative-flat", dict(shards=4)),
        ("delta-flat", dict(shards=4, delta=True)),
        ("cumulative-tree", dict(shards=4, tree=2)),
        ("delta-tree", dict(shards=4, tree=2, delta=True, keyframe_every=4)),
        ("1-shard", dict(shards=1)),
        ("2-shards", dict(shards=2)),
        ("8-shards", dict(shards=8)),
    )

    @classmethod
    def _canonical_run(cls, build, duration, keyframe_every=0,
                       **collector_kwargs):
        scenario = build()
        scenario.collector(epoch_s=0.05, **collector_kwargs)
        if keyframe_every:
            scenario.setup(functools.partial(_force_keyframes,
                                             every=keyframe_every))
        scenario.spec.result_mapper = None      # raw ExperimentResult
        result = scenario.run(duration_s=duration)
        plane = result.experiment.collect_plane
        view = json.dumps({f"{app}|{key}": summary_jsonable(s)
                           for (app, key), s in plane.merge().items()},
                          sort_keys=True, default=repr)
        return result.events_executed, view

    def _differential(self, build, duration):
        reference_view = None
        events_at = {}
        for label, collector_kwargs in self.CONFIGS:
            events, view = self._canonical_run(build, duration,
                                               **collector_kwargs)
            if reference_view is None:
                reference_view = view
            assert view == reference_view, label
            # Every shard's epoch clock is a simulator event, so event
            # totals are comparable only at equal shard counts.
            shards = collector_kwargs["shards"]
            assert events == events_at.setdefault(shards, events), label

    def test_microburst(self):
        from repro.apps.microburst import microburst_scenario
        self._differential(
            lambda: microburst_scenario(link_rate_bps=mbps(10),
                                        offered_load=0.4, seed=3), 0.25)

    def test_netsight(self):
        from repro.apps.netsight import netsight_scenario
        self._differential(
            lambda: netsight_scenario(link_rate_bps=mbps(10), seed=2), 0.2)

    def test_sketches(self):
        from repro.apps.sketches import sketch_scenario
        self._differential(
            lambda: sketch_scenario(num_leaves=2, num_spines=1,
                                    hosts_per_leaf=2, seed=2), 0.3)

    def test_rcp(self):
        from repro.apps.rcp import ALPHA_MAXMIN, rcp_scenario
        self._differential(
            lambda: rcp_scenario(alpha=ALPHA_MAXMIN,
                                 link_rate_bps=mbps(10)), 0.5)

    def test_conga(self):
        from repro.apps.conga import conga_scenario
        self._differential(
            lambda: conga_scenario("conga", link_rate_bps=mbps(10)), 0.5)

    def test_netverify(self):
        from repro.apps.netverify import verification_scenario
        self._differential(lambda: verification_scenario(), 0.35)
