"""Tests for the fault plane (repro.faults) and the loss-localization app.

Covers the plan model (validation, canonical ordering, deterministic
generation), the injector (eager link resolution, scheduled application,
per-link corruption streams), the remediation policy registry and
controller, the Scenario / spec / sweep integration, and the end-to-end
story: an empty plan changes nothing, a seeded corrupting link is named
by the TPP detector, and the disable-and-repair policy measurably cuts
the loss penalty versus doing nothing.
"""

import pickle

import pytest

from repro.apps.losslocal import (LossLocalizationResult, localize,
                                  losslocal_scenario, merged_deficits)
from repro.faults import (FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan,
                          FaultSpec, POLICIES, RemediationSpec, link_rng)
from repro.net import mbps
from repro.session import ResultSummary, Scenario, SpecError
from repro.session.registry import UnknownRegistration
from repro.sweep import SweepSpec
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


class TestRemediationSpec:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            RemediationSpec(period_s=0.0)
        with pytest.raises(ValueError):
            RemediationSpec(threshold=0)
        with pytest.raises(ValueError):
            RemediationSpec(min_path_diversity=-1)
        with pytest.raises(ValueError):
            RemediationSpec(repair_time_s=-1.0)

    def test_shipped_policies_registered(self):
        for name in ("do-nothing", "disable-and-repair",
                     "capacity-constrained"):
            assert name in POLICIES

    def test_unknown_policy_fails_with_menu(self):
        with pytest.raises(UnknownRegistration, match="do-nothing"):
            POLICIES.get("cold-reboot")


class TestScenarioIntegration:
    def test_fault_knobs_validate_eagerly(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            quick_losslocal().faults(loss_rate=2.0)

    def test_spec_and_kwargs_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            quick_losslocal().faults(one_link_plan(), loss_rate=0.5)
        with pytest.raises(TypeError, match="FaultSpec"):
            quick_losslocal().faults("edge0_0<->agg0_0")

    def test_unknown_policy_fails_at_declaration(self):
        with pytest.raises(UnknownRegistration, match="disable-and-repair"):
            quick_losslocal().remediation("cold-reboot")

    def test_remediation_needs_its_detector_app(self):
        scenario = (Scenario("dumbbell", seed=1, hosts_per_side=2)
                    .workload("messages", offered_load=0.1)
                    .remediation("do-nothing"))
        with pytest.raises(ValueError, match="loss-localization"):
            scenario.build(0.1)


class TestSpecAndSweep:
    def test_round_trip_preserves_faults_and_remediation(self):
        scenario = quick_losslocal(faults=one_link_plan(),
                                   remediation="disable-and-repair")
        spec = scenario.to_spec()
        rebuilt = pickle.loads(pickle.dumps(spec)).to_scenario()
        assert rebuilt.spec.faults.plan == one_link_plan()
        assert rebuilt.spec.remediation.policy == "disable-and-repair"
        assert rebuilt.to_spec().fingerprint() == spec.fingerprint()

    def test_fault_axes_expand(self):
        sweep = (SweepSpec(quick_losslocal(faults=one_link_plan()))
                 .axis("faults.loss_rate", [0.05, 0.1])
                 .axis("remediation.policy",
                       ["do-nothing", "disable-and-repair"]))
        tasks = sweep.expand()
        assert len(tasks) == 4
        rates = {task.spec.faults.loss_rate for task in tasks}
        policies = {task.spec.remediation.policy for task in tasks}
        assert rates == {0.05, 0.1}
        assert policies == {"do-nothing", "disable-and-repair"}
        assert len({task.fingerprint for task in tasks}) == 4

    def test_fault_axes_validate_eagerly(self):
        sweep = SweepSpec(quick_losslocal())
        with pytest.raises(SpecError, match="FaultSpec has no field 'nope'"):
            sweep.axis("faults.nope", [1])
        with pytest.raises(SpecError,
                           match="RemediationSpec has no field 'nope'"):
            sweep.axis("remediation.nope", [1])
        with pytest.raises(SpecError, match="must be faults.<field>"):
            sweep.axis("faults", [1])


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

    def test_disable_and_repair_cuts_the_penalty(self):
        plan = one_link_plan()
        nothing_exp, nothing = self._run_raw(
            quick_losslocal(faults=plan, remediation="do-nothing"))
        acting_exp, acting = self._run_raw(
            quick_losslocal(faults=plan,
                            remediation=RemediationSpec(
                                policy="disable-and-repair")))
        assert nothing_exp.remediation.links_disabled == 0
        assert acting_exp.remediation.links_disabled == 1
        assert acting_exp.remediation.reroutes >= 1
        assert acting.packets_corrupted < nothing.packets_corrupted
        assert acting_exp.remediation.loss_penalty() \
            < nothing_exp.remediation.loss_penalty()
        assert acting.remediation_actions >= 1
        # Both controllers streamed their metric series.
        for experiment in (nothing_exp, acting_exp):
            bundle = experiment.remediation.summarize()
            assert bundle["timeseries"].keys() == ["loss-penalty",
                                                   "worst-tor-diversity"]
            assert bundle["counters"]["ticks"] > 0

    def test_capacity_floor_refuses_the_disable(self):
        experiment, result = self._run_raw(
            quick_losslocal(faults=one_link_plan(),
                            remediation=RemediationSpec(
                                policy="capacity-constrained",
                                min_path_diversity=2)))
        # Disabling the accused link would leave edge0_0 with one fabric
        # link — below the floor of 2 — so the policy must refuse, once.
        assert experiment.remediation.refusals == 1
        assert experiment.remediation.links_disabled == 0
        assert result.packets_corrupted > 0

    def test_scheduled_repair_restores_the_link(self):
        experiment, result = self._run_raw(
            quick_losslocal(faults=one_link_plan(),
                            remediation=RemediationSpec(
                                policy="disable-and-repair",
                                repair_time_s=0.05)))
        controller = experiment.remediation
        assert controller.links_disabled == 1
        assert controller.links_repaired == 1
        lossy = next(l for l in experiment.network.links
                     if l.name == LOSSY_LINK)
        assert lossy.up and lossy.loss_rate == 0.0
        assert result.link_down_transitions == 1
        assert result.link_up_transitions == 1
