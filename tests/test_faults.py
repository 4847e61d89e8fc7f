"""Tests for the fault plane (repro.faults) and the loss-localization app.

Covers the plan model (validation, canonical ordering, deterministic
generation), the injector (eager link resolution, scheduled application,
per-link corruption streams), the Scenario / spec / sweep integration,
and the end-to-end story: an empty plan changes nothing, and a seeded
corrupting link is named by the TPP detector.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.apps.losslocal import (LOSSLOCAL_TPP_SOURCE, LinkSuspect,
                                  LossLocalizationAggregator,
                                  LossLocalizationResult, localize,
                                  losslocal_scenario, merged_deficits)
from repro.core.compiler import compile_tpp
from repro.faults import (FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan,
                          FaultSpec, link_rng)
from repro.net import Simulator, mbps, udp_packet
from repro.net.topology import build_leaf_spine
from repro.session import ResultSummary, Scenario, SpecError
from repro.sweep import SweepSpec
from tcpu_oracle import push
from test_flightrec import _app_rows, _canonical_view

#: The link the end-to-end tests corrupt — an edge-to-aggregation link on
#: the k=4 fat tree, so all-hosts traffic crosses it from both sides.
LOSSY_LINK = "edge0_0<->agg0_0"


def one_link_plan(loss_rate: float = 0.10, seed: int = 7) -> FaultPlan:
    return FaultPlan(events=(FaultEvent(0.0, LOSSY_LINK, "loss", loss_rate),),
                     seed=seed)


def quick_losslocal(**kwargs) -> Scenario:
    kwargs.setdefault("k", 4)
    kwargs.setdefault("link_rate_bps", mbps(100))
    kwargs.setdefault("offered_load", 0.2)
    kwargs.setdefault("seed", 1)
    return losslocal_scenario(**kwargs)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0.0, "a<->b", "flap")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FaultEvent(-0.1, "a<->b", "down")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(bad, "a<->b", "down")

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            FaultEvent(0.0, "a<->b", "loss", 0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            FaultEvent(0.0, "a<->b", "loss", 1.5)
        assert FaultEvent(0.0, "a<->b", "loss", 1.0).loss_rate == 1.0

    def test_non_loss_kinds_take_no_rate(self):
        with pytest.raises(ValueError, match="no loss_rate"):
            FaultEvent(0.0, "a<->b", "down", 0.5)


class TestFaultPlan:
    def test_events_sorted_canonically(self):
        late = FaultEvent(1.0, "a<->b", "down")
        early = FaultEvent(0.5, "c<->d", "loss", 0.1)
        plan = FaultPlan(events=(late, early))
        assert plan.events == (early, late)
        # Equal event multisets compare equal regardless of input order.
        assert plan == FaultPlan(events=(early, late))
        assert plan.links() == ["a<->b", "c<->d"]
        assert len(plan) == 2 and list(plan) == [early, late]

    def test_same_instant_orders_by_link_then_kind(self):
        repair = FaultEvent(0.0, "a<->b", "repair")
        down = FaultEvent(0.0, "a<->b", "down")
        plan = FaultPlan(events=(repair, down))
        assert [e.kind for e in plan.events] == ["down", "repair"]
        assert tuple(FAULT_KINDS) == ("loss", "down", "repair")

    def test_non_event_entries_rejected(self):
        with pytest.raises(TypeError, match="must be FaultEvent"):
            FaultPlan(events=(("0.0", "a<->b", "down"),))

    def test_generate_is_deterministic_and_pool_order_independent(self):
        pool = ["l3", "l1", "l2", "l4"]
        first = FaultPlan.generate(pool, seed=5, corrupt_links=2,
                                   loss_rate=0.05)
        again = FaultPlan.generate(reversed(pool), seed=5, corrupt_links=2,
                                   loss_rate=0.05)
        assert first == again
        assert len(first) == 2
        assert FaultPlan.generate(pool, seed=6, corrupt_links=2,
                                  loss_rate=0.05) != first

    def test_generate_failures_get_repairs_on_other_links(self):
        plan = FaultPlan.generate(["l1", "l2", "l3"], seed=1, corrupt_links=1,
                                  loss_rate=0.1, fail_links=1, fail_at_s=0.2,
                                  repair_after_s=0.3)
        kinds = [e.kind for e in plan.events]
        assert sorted(kinds) == ["down", "loss", "repair"]
        down = next(e for e in plan if e.kind == "down")
        repair = next(e for e in plan if e.kind == "repair")
        lossy = next(e for e in plan if e.kind == "loss")
        assert down.link == repair.link != lossy.link
        assert repair.time == pytest.approx(down.time + 0.3)

    def test_generate_clamps_to_pool_size(self):
        plan = FaultPlan.generate(["only"], seed=0, corrupt_links=5,
                                  loss_rate=0.1, fail_links=5)
        assert plan.links() == ["only"]          # nothing left to fail

    def test_plans_pickle(self):
        plan = one_link_plan()
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestFaultSpec:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(corrupt_links=-1)
        with pytest.raises(ValueError):
            FaultSpec(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(onset_s=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(repair_after_s=0.0)

    def test_explicit_plan_wins(self):
        plan = one_link_plan()
        assert FaultSpec(plan=plan).resolve(network=None) is plan

    def test_default_pool_is_inter_switch_links(self):
        experiment = Scenario("dumbbell", seed=1, hosts_per_side=2).build(0.1)
        plan = FaultSpec(seed=3, corrupt_links=5, loss_rate=0.1) \
            .resolve(experiment.network)
        # The dumbbell has one fabric link; host access links stay healthy.
        assert plan.links() == ["s0<->s1"]

    def test_explicit_pool_overrides_default(self):
        experiment = Scenario("dumbbell", seed=1, hosts_per_side=2).build(0.1)
        plan = FaultSpec(links=("h0<->s0",), corrupt_links=1, loss_rate=0.2) \
            .resolve(experiment.network)
        assert plan.links() == ["h0<->s0"]


class TestFaultInjector:
    def test_unknown_link_fails_with_menu(self):
        experiment = Scenario("dumbbell", seed=1, hosts_per_side=2).build(0.1)
        plan = FaultPlan(events=(FaultEvent(0.0, "s0<->s9", "down"),))
        with pytest.raises(ValueError, match="unknown link 's0<->s9'.*s0<->s1"):
            FaultInjector(experiment.network, plan)

    def test_events_apply_at_their_times(self):
        experiment = Scenario("dumbbell", seed=1, hosts_per_side=2).build(None)
        link = next(l for l in experiment.network.links
                    if l.name == "s0<->s1")
        plan = FaultPlan(events=(FaultEvent(0.01, "s0<->s1", "loss", 0.25),
                                 FaultEvent(0.02, "s0<->s1", "down"),
                                 FaultEvent(0.03, "s0<->s1", "repair")))
        injector = FaultInjector(experiment.network, plan)
        injector.schedule(experiment.sim)
        experiment.sim.run(until=0.015)
        assert link.loss_rate == 0.25 and link.up
        experiment.sim.run(until=0.025)
        assert not link.up
        experiment.sim.run(until=0.04)
        # A repair brings the link back *clean*.
        assert link.up and link.loss_rate == 0.0
        assert injector.events_applied == 3

    def test_per_link_streams_are_independent(self):
        assert link_rng(1, "a").random() == link_rng(1, "a").random()
        assert link_rng(1, "a").random() != link_rng(1, "b").random()
        assert link_rng(1, "a").random() != link_rng(2, "a").random()


class TestScenarioIntegration:
    def test_fault_knobs_validate_eagerly(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            quick_losslocal().faults(loss_rate=2.0)

    def test_spec_and_kwargs_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            quick_losslocal().faults(one_link_plan(), loss_rate=0.5)
        with pytest.raises(TypeError, match="FaultSpec"):
            quick_losslocal().faults("edge0_0<->agg0_0")


class TestSpecAndSweep:
    def test_round_trip_preserves_faults(self):
        scenario = quick_losslocal(faults=one_link_plan())
        spec = scenario.to_spec()
        rebuilt = pickle.loads(pickle.dumps(spec)).to_scenario()
        assert rebuilt.spec.faults.plan == one_link_plan()
        assert rebuilt.to_spec().fingerprint() == spec.fingerprint()

    def test_fault_axes_expand(self):
        sweep = (SweepSpec(quick_losslocal(faults=one_link_plan()))
                 .axis("faults.loss_rate", [0.05, 0.1])
                 .axis("faults.seed", [7, 8]))
        tasks = sweep.expand()
        assert len(tasks) == 4
        rates = {task.spec.faults.loss_rate for task in tasks}
        seeds = {task.spec.faults.seed for task in tasks}
        assert rates == {0.05, 0.1}
        assert seeds == {7, 8}
        assert len({task.fingerprint for task in tasks}) == 4

    def test_fault_axes_validate_eagerly(self):
        sweep = SweepSpec(quick_losslocal())
        with pytest.raises(SpecError, match="FaultSpec has no field 'nope'"):
            sweep.axis("faults.nope", [1])
        with pytest.raises(SpecError, match="must be faults.<field>"):
            sweep.axis("faults", [1])


class TestLocalize:
    """The detector's arithmetic on hand-made hop stamps and deficits."""

    @staticmethod
    def result(per_host, app="loss-localization"):
        """A stand-in result: a 2-leaf, 2-spine fabric (spine0=1, spine1=2,
        leaf0=3, leaf1=4) and one aggregator per host."""
        network = build_leaf_spine(Simulator(), num_leaves=2, num_spines=2,
                                   hosts_per_leaf=1)

        def aggregators(name):
            assert name == app
            return per_host

        return SimpleNamespace(network=network, aggregators=aggregators)

    def test_aggregator_diffs_adjacent_hops(self):
        aggregator = LossLocalizationAggregator("h1_0")
        tpp = compile_tpp(LOSSLOCAL_TPP_SOURCE, num_hops=4).clone_tpp()
        # leaf0 sent 10 before this packet; spine0 counts only 7 of them plus
        # this one arriving; spine0 -> leaf1 is clean (5 sent, 6 counted).
        for switch_id, rx, tx in ((3, 1, 10), (1, 8, 5), (4, 6, 0)):
            for word in (switch_id, rx, tx):
                push(tpp, word)
            tpp.advance_hop()
        aggregator.on_tpp(tpp, udp_packet("h0_0", "h1_0", 100))
        assert aggregator.deficit_samples == 2
        assert aggregator.link_deficits == {(3, 1): 3, (1, 4): 0}
        summary = aggregator.summarize()
        assert summary["counters"]["samples"] == 2
        assert sorted(summary["max_deficits"].samples) \
            == [(0.0, "1->4", 0), (0.0, "3->1", 3)]

    def test_merged_deficits_keep_each_pairs_max_across_hosts(self):
        result = self.result({
            "h1_0": SimpleNamespace(link_deficits={(3, 1): 2, (1, 4): -1}),
            "h0_0": SimpleNamespace(link_deficits={(3, 1): 5, (4, 2): 1}),
            "probe": SimpleNamespace()})         # no link_deficits: adds nothing
        assert merged_deficits(result) == {(3, 1): 5, (1, 4): -1, (4, 2): 1}

    def test_ranked_worst_first_ties_by_pair(self):
        result = self.result({"h0_0": SimpleNamespace(
            link_deficits={(4, 2): 2, (3, 1): 4, (2, 3): 2})})
        assert localize(result) == [
            LinkSuspect("leaf0<->spine0", (3, 1), 4),
            LinkSuspect("leaf0<->spine1", (2, 3), 2),
            LinkSuspect("leaf1<->spine1", (4, 2), 2)]

    def test_threshold_unknown_ids_and_non_adjacent_pairs_are_skipped(self):
        result = self.result({"h0_0": SimpleNamespace(
            link_deficits={(3, 2): 6, (3, 4): 9, (99, 1): 8, (1, 3): 0})})
        # (3, 4) is leaf0 -> leaf1, no link; 99 is no switch's id.
        assert localize(result) == [LinkSuspect("leaf0<->spine1", (3, 2), 6)]
        assert localize(result, threshold=7) == []
        assert [s.pair for s in localize(result, threshold=0)] == [(3, 2), (1, 3)]

    def test_accused_link_is_the_top_suspect(self):
        suspect = LinkSuspect("leaf0<->spine0", (3, 1), 4)
        found = LossLocalizationResult(suspects=[suspect], deficits={(3, 1): 4},
                                       tpps_received=1, fault_events_applied=0,
                                       packets_corrupted=0)
        assert found.accused_link == "leaf0<->spine0"
        found.suspects = []
        assert found.accused_link is None


class TestEndToEnd:
    DURATION = 0.3

    def _run_raw(self, scenario):
        """The unmapped ExperimentResult plus the live experiment."""
        experiment = scenario.build(self.DURATION)
        return experiment, experiment.run(self.DURATION)

    def test_empty_plan_is_byte_identical_to_no_faults(self):
        baseline_exp, baseline = self._run_raw(quick_losslocal())
        empty_exp, empty = self._run_raw(
            quick_losslocal().faults(FaultPlan()))
        assert empty_exp.fault_injector.events_applied == 0
        assert empty.events_executed == baseline.events_executed
        assert ResultSummary.from_result(empty).as_jsonable() \
            == ResultSummary.from_result(baseline).as_jsonable()

    @pytest.mark.parametrize("name,factory,duration", _app_rows(),
                             ids=[row[0] for row in _app_rows()])
    def test_empty_plan_is_byte_identical_on_every_app(self, name, factory,
                                                       duration):
        def run(scenario):
            result = scenario.build(duration).run(duration)
            return result, ResultSummary.from_result(result)

        baseline, baseline_summary = run(factory())
        empty, empty_summary = run(factory().faults(FaultPlan()))
        assert empty.fault_events_applied == 0
        assert empty.events_executed == baseline.events_executed
        # Address-scrubbed view: some sketch parts repr-render.
        assert _canonical_view(empty_summary) \
            == _canonical_view(baseline_summary)

    def test_detector_names_the_corrupting_link(self):
        result = quick_losslocal(faults=one_link_plan()) \
            .run(self.DURATION)
        assert isinstance(result, LossLocalizationResult)
        assert result.fault_events_applied == 1
        assert result.packets_corrupted > 0
        assert result.accused_link == LOSSY_LINK
        assert result.suspects[0].deficit >= 1
        # Every drop this run is fault-attributable corruption.
        assert set(result.drop_reasons) == {"corrupted"}

    def test_healthy_run_accuses_nobody(self):
        result = quick_losslocal().run(self.DURATION)
        assert result.packets_corrupted == 0
        assert result.accused_link is None
        assert all(deficit <= 0 for deficit in result.deficits.values())
