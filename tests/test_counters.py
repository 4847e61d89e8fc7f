"""The one counter snapshot (``Experiment.counters``) and what derives from it.

Three contracts:

* **one channel** — the telemetry gauges and the 25 public
  ``ExperimentResult`` scalars are reads of the same snapshot;
* **extension** — a key added to one component's ``counters()`` face reaches
  the result, the gauges and the sweep side field with no edit under
  ``repro/session``, and never enters the canonical rendering;
* **canonical bytes** — ``ResultSummary.as_jsonable()`` is pinned by digest
  (computed at the commit before the snapshot refactor), so the byte
  contract is held here and not only by the benchmark suite.
"""

import hashlib
import json
import pickle

import pytest

from repro.apps.losslocal import losslocal_scenario
from repro.apps.microburst import MICROBURST_TPP_SOURCE, MicroburstAggregator
from repro.endhost import PacketFilter
from repro.faults import FaultEvent, FaultPlan
from repro.net import mbps
from repro.obs import Telemetry
from repro.session import ResultSummary, Scenario
from repro.session.spec import RESULT_COUNTERS
from repro.sweep import SweepRunner


#: The canonical rows of the deleted compiled-trace engine and remediation
#: loop: kept (reading 0) until the benchmark suite's pinned digests are
#: re-pinned without them.
LEFTOVER_ROWS = ("traces_compiled", "trace_executions", "trace_fallbacks",
                 "remediation_actions")


def monitored(seed=3, aggregator=MicroburstAggregator) -> Scenario:
    return (Scenario("dumbbell", seed=seed, hosts_per_side=2,
                     link_rate_bps=mbps(10))
            .tpp("monitor", MICROBURST_TPP_SOURCE, num_hops=6,
                 filter=PacketFilter(protocol="udp"), aggregator=aggregator)
            .workload("messages", offered_load=0.3, message_bytes=2000))


def every_plane() -> Scenario:
    """Collector tier + fault plan: every prefix reports."""
    plan = FaultPlan(events=(FaultEvent(0.0, "edge0_0<->agg0_0", "loss", 0.10),),
                     seed=7)
    scenario = losslocal_scenario(
        k=4, link_rate_bps=mbps(100), offered_load=0.2, seed=1, faults=plan)
    scenario.map_result(None)
    return scenario.collector(shards=2, epoch_s=0.01)


class TestOneChannel:
    @pytest.fixture(scope="class")
    def result(self):
        return every_plane().run(0.05, telemetry=Telemetry())

    def test_every_prefix_reports(self, result):
        prefixes = {key.split(".")[0] for key in result.counters}
        assert prefixes >= {"sim", "switch", "tcpu", "host", "link", "shim",
                            "apps", "collect", "faults", "drops"}
        assert all(isinstance(value, int) for value in result.counters.values())

    def test_gauges_are_the_snapshot(self, result):
        gauges = dict(result.telemetry["metrics"]["gauges"])
        # The clock is a reading, not a count: a gauge beside the snapshot.
        assert gauges.pop("sim.now_s") == result.end_time_s
        engine = {name: value for name, value in gauges.items()
                  if name.startswith(("sim.", "tcpu.", "collect."))}
        assert engine
        assert not any(name.startswith("tcpu.trace") for name in gauges)
        for name, value in engine.items():
            assert result.counters[name] == value, name
        # ... and nothing the snapshot holds is missing from the gauges.
        assert {name: gauges[name] for name in result.counters} \
            == result.counters

    def test_scalars_read_their_table_row(self, result):
        assert len(RESULT_COUNTERS) == 25
        for name, key in RESULT_COUNTERS.items():
            if name in LEFTOVER_ROWS:
                # No component produces these; they read as zero.
                assert key not in result.counters, (name, key)
                assert getattr(result, name) == 0, name
                continue
            # With every plane declared, a row naming a key no component
            # produces is a typo, not an absent plane.
            assert key in result.counters, (name, key)
            assert getattr(result, name) == result.counters[key], name
        with pytest.raises(AttributeError):
            result.no_such_counter

    def test_scalars_match_the_components(self, result):
        experiment = result.experiment
        assert result.events_executed == experiment.sim.events_executed > 0
        assert result.tpps_completed == sum(
            stack.shim.tpps_completed for stack in result.stacks.values()) > 0
        assert result.summaries_submitted == sum(
            door.submitted
            for door in experiment.collect_plane.front_doors.values()) > 0
        assert result.fault_events_applied \
            == experiment.fault_injector.events_applied == 1
        assert result.packets_corrupted == sum(
            link.packets_corrupted for link in result.network.links) > 0
        assert result.drop_reasons == {"corrupted": result.packets_corrupted}
        assert result.summary_drops_by_policy == {}

    def test_absent_planes_read_zero(self):
        result = monitored().run(0.05)
        assert not any(key.startswith(("collect.", "faults."))
                       for key in result.counters)
        assert result.collect_shards == result.fault_events_applied == 0
        assert ResultSummary.from_result(result).counters["collect_shards"] == 0

    def test_snapshot_is_pure_reads(self):
        experiment = monitored().build()
        experiment.sim.run(until=0.02)
        before = (experiment.sim.events_executed, experiment.sim.pending_events,
                  experiment.rng.getstate())
        assert experiment.counters() == experiment.counters()
        assert before == (experiment.sim.events_executed,
                          experiment.sim.pending_events,
                          experiment.rng.getstate())


class HopCountingAggregator(MicroburstAggregator):
    """The ARCHITECTURE recipe: one int, one entry on the owner's face."""

    def __init__(self, host_name):
        super().__init__(host_name)
        self.hop_words_seen = 0

    def on_tpp(self, tpp, packet):
        super().on_tpp(tpp, packet)
        self.hop_words_seen += len(tpp.pushed_words())

    def counters(self):
        return dict(super().counters(), hop_words_seen=self.hop_words_seen)


class TestExtensionProperty:
    KEY = "apps.hop_words_seen"

    def test_new_key_reaches_result_gauges_and_summary(self):
        result = monitored(aggregator=HopCountingAggregator) \
            .run(0.05, telemetry=Telemetry())
        expected = sum(aggregator.hop_words_seen
                       for aggregator in result.aggregators().values())
        assert result.counters[self.KEY] == expected > 0
        assert result.telemetry["metrics"]["gauges"][self.KEY] == expected
        summary = pickle.loads(pickle.dumps(ResultSummary.from_result(result)))
        assert summary.snapshot[self.KEY] == expected
        assert summary.snapshot == result.counters
        assert "hop_words_seen" not in json.dumps(summary.as_jsonable())
        assert set(summary.counters) == set(RESULT_COUNTERS)

    def test_new_key_survives_a_manifest_reload(self, tmp_path):
        spec = monitored(aggregator=HopCountingAggregator).to_spec()
        first = SweepRunner(workers=1, duration_s=0.05,
                            manifest_dir=tmp_path).run([spec])
        reloaded = SweepRunner(workers=1, duration_s=0.05,
                               manifest_dir=tmp_path).run([spec])
        assert [o.source for o in reloaded.outcomes] == ["manifest"]
        snapshot = reloaded.outcomes[0].summary.snapshot
        assert snapshot == first.outcomes[0].summary.snapshot
        assert snapshot[self.KEY] > 0
        assert "hop_words_seen" not in reloaded.canonical_json()


def canonical_digest(scenario: Scenario, duration_s: float) -> str:
    summary = ResultSummary.from_result(scenario.run(duration_s))
    text = json.dumps(summary.as_jsonable(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class TestCanonicalBytesPin:
    """Digests computed at 66dd0ad, before ``RESULT_COUNTER_FIELDS`` became
    the ``RESULT_COUNTERS`` table.  A moved digest means the byte contract
    moved: re-pin only together with the benchmark suite's own pins."""

    def test_plane_less(self):
        assert canonical_digest(monitored(), 0.2) \
            == "6d3b02f52d57dbb878d5d63ab7642661"

    def test_sharded_delta_collector(self):
        scenario = monitored().collector(shards=2, delta=True, epoch_s=0.05)
        assert canonical_digest(scenario, 0.2) \
            == "25cf06e08863f5fce26050b2b79b4d59"
