"""Tests for the sweep layer (repro.sweep + repro.session.spec).

Covers the spec-serialization contract (round-trip byte-identity across a
pickle boundary, eager rejection of unpicklable hooks), sweep-plan
expansion (grid / zip / seed replication, axis validation, duplicate
detection), the differential guarantee (a multi-worker sweep's canonical
artifact is byte-identical to the serial run), failure paths (worker
exceptions, crashes, timeouts, retry accounting), and the resumable
manifest (completed fingerprints are skipped, artifacts stay identical).
"""

import json
import os
import pickle
import re
import time

from dataclasses import dataclass

import pytest

from repro.apps.conga import conga_scenario
from repro.apps.netsight import netsight_scenario
from repro.apps.rcp import rcp_scenario
from repro.core.compiler import compile_tpp
from repro.core.isa import Instruction
from repro.core.packet_format import TPP, AddressingMode, EncapProtocol
from repro.session import (ResultSummary, Scenario, ScenarioSpec, SpecError,
                           UnknownRegistration, register_workload,
                           spec_jsonable)
from repro.sweep import SweepRunner, SweepSpec, SweepTask
from repro.sweep.runner import SweepManifest

#: Simulated seconds per experiment in the differential tests — tiny, the
#: point is orchestration, not the physics.
DT = 0.05


# Module-level workloads (picklable by registry name, inherited by forked
# sweep workers) used to provoke the runner's failure paths.
@register_workload("sweep-test-explode")
def exploding_workload(experiment, *, message: str = "kaboom"):
    raise RuntimeError(message)


@register_workload("sweep-test-crash")
def crashing_workload(experiment):
    os._exit(3)                                   # hard worker death


@register_workload("sweep-test-sleepy")
def sleepy_workload(experiment, *, sleep_s: float = 3.0):
    time.sleep(sleep_s)                           # wall-clock stall
    return 0


@register_workload("sweep-test-flaky")
def flaky_workload(experiment, *, marker: str):
    # Fails its first attempt only; the marker file carries that across
    # worker processes.
    if not os.path.exists(marker):
        open(marker, "x").close()
        raise RuntimeError("first attempt fails")
    return 0


def monitor_scenario(seed: int = 1, load: float = 0.2) -> Scenario:
    return (Scenario("dumbbell", seed=seed, name="sweep-test", hosts_per_side=2)
            .tpp("mon", "PUSH [Queue:QueueOccupancy]", num_hops=6,
                 sample_frequency=2)
            .workload("messages", offered_load=load))


def workload_scenario(workload: str, **kwargs) -> Scenario:
    built = Scenario("dumbbell", seed=1, name=f"sweep-{workload}",
                     hosts_per_side=1)
    return built.workload(workload, **kwargs)


class TestScenarioSpec:
    def test_round_trip_is_byte_identical(self):
        spec = monitor_scenario().to_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert spec.fingerprint() == clone.fingerprint()
        a = monitor_scenario().run(duration_s=DT)
        b = clone.to_scenario().run(duration_s=DT)
        assert a.events_executed == b.events_executed
        assert a.tpps_received == b.tpps_received

    def test_spec_run_matches_builder_run(self):
        direct = monitor_scenario().run(duration_s=DT)
        via_spec = monitor_scenario().to_spec().to_scenario().run(duration_s=DT)
        assert direct.events_executed == via_spec.events_executed

    def test_lambda_hooks_rejected_eagerly(self):
        bad = monitor_scenario().setup(lambda experiment: None)
        with pytest.raises(SpecError, match="lambda"):
            bad.to_spec()

    def test_closure_hooks_rejected_eagerly(self):
        limit = 3

        def closure_hook(experiment):
            return limit

        bad = monitor_scenario().setup(closure_hook)
        with pytest.raises(SpecError, match="defined inside a function"):
            bad.to_spec()

    def test_from_spec_round_trips_through_scenario(self):
        spec = monitor_scenario().to_spec()
        again = spec.to_scenario().to_spec()
        assert spec.fingerprint() == again.fingerprint()

    @pytest.mark.parametrize("maker", [
        "microburst_scenario", "rcp_scenario", "conga_scenario",
        "sketch_scenario", "netsight_scenario"])
    def test_app_scenarios_are_spec_serializable(self, maker):
        import repro.apps.conga
        import repro.apps.microburst
        import repro.apps.netsight
        import repro.apps.rcp
        import repro.apps.sketches
        for module in (repro.apps.microburst, repro.apps.rcp, repro.apps.conga,
                       repro.apps.sketches, repro.apps.netsight):
            if hasattr(module, maker):
                spec = getattr(module, maker)().to_spec()
                clone = pickle.loads(pickle.dumps(spec))
                assert spec.fingerprint() == clone.fingerprint()
                return
        pytest.fail(f"no app module defines {maker}")

    def test_result_summary_is_picklable_and_mergeable(self):
        summary = ResultSummary.from_result(monitor_scenario().run(duration_s=DT))
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.as_jsonable() == summary.as_jsonable()
        merged = summary.bundle()
        merged.merge(clone.bundle())
        assert merged["experiment-counters"]["experiments"] == 2
        assert merged["experiment-counters"]["events_executed"] == \
            2 * summary.counters["events_executed"]


def pinned_base() -> Scenario:
    return (Scenario("dumbbell", seed=1, hosts_per_side=2)
            .tpp("monitor", "PUSH [Switch:SwitchID]")
            .workload("messages", offered_load=0.3))


#: label -> (scenario factory, fingerprint).  The fingerprint is the content
#: address a sweep manifest resumes by, so these are a byte contract on the
#: spec's canonical rendering: a moved pin means the rendering changed.
FINGERPRINT_PINS = {
    "base": (pinned_base, "d3ed4816b3cbd992b9fcf3282df855f0"),
    "collector": (lambda: pinned_base().collector(
        shards=3, epoch_s=0.01, tree=2, delta=True),
        "e079cdb2f510c3de26a91a651c03f66e"),
    "recorder": (lambda: pinned_base().flight_recorder(
        capacity=128, sample_every=4), "6ba5d0c10362dbfa088a8d788b86fef2"),
    "faults": (lambda: pinned_base()
               .faults(seed=3, corrupt_links=1, loss_rate=0.05)
               .remediation("disable-and-repair", app="monitor"),
               "284441c1e7f66aa40431d4366f82fb42"),
    "rcp": (rcp_scenario, "e9326869548e545d540ab15a19462aec"),
    "conga": (conga_scenario, "5ef59e3daef1decf68235b43981a744e"),
    "netsight": (netsight_scenario, "41448385797a891c62007aa69c490fcc"),
}


class TestFingerprintPins:
    @pytest.mark.parametrize("label", sorted(FINGERPRINT_PINS))
    def test_spec_fingerprint_is_pinned(self, label):
        build, pin = FINGERPRINT_PINS[label]
        spec = build().to_spec()
        # A pickle-hashed leaf would tie the pin to one Python's pickle bytes.
        assert "pickle_blake2b" not in json.dumps(spec_jsonable(spec))
        assert spec.fingerprint() == pin


@dataclass
class TPPFields:
    """The oracle for a TPP's canonical rendering: a dataclass with the
    constructor's parameters as fields, rendered the way every dataclass is."""

    instructions: list[Instruction]
    memory: bytearray
    mode: AddressingMode
    word_bytes: int
    hop_number: int
    stack_pointer: int
    hop_size: int
    app_id: int
    encap_proto: EncapProtocol
    version: int
    execution_halted: bool
    max_instructions: int

    @classmethod
    def of(cls, tpp):
        return cls(list(tpp.instructions), tpp.memory, tpp.mode, tpp.word_bytes,
                   tpp.hop_number, tpp.stack_pointer, tpp.hop_size, tpp.app_id,
                   tpp.encap_proto, tpp.version, tpp.execution_halted,
                   tpp.max_instructions)


class TestTPPRendering:
    """A spec carrying a program renders its TPP field by field, like a
    dataclass: every field of the program and of the packet moves the
    fingerprint.  (No hex pin: the packet memory is a pickle-hashed leaf.)"""

    def test_tpp_renders_field_by_field(self):
        compiled = compile_tpp("PUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]",
                               num_hops=4)
        hop = TPP(list(compiled.tpp.instructions), bytearray(12), mode=AddressingMode.HOP,
                  hop_size=4, app_id=3, max_instructions=6)
        for tpp in (compiled.tpp, hop, hop.clone()):
            rendered = spec_jsonable(tpp)
            assert rendered == {**spec_jsonable(TPPFields.of(tpp)), "__type__": "TPP"}
            assert rendered["max_instructions"] == tpp.max_instructions
        rendered = spec_jsonable(compiled)
        assert rendered["__type__"] == "CompiledTPP"
        assert rendered["tpp"] == spec_jsonable(compiled.tpp)

    def test_every_field_moves_the_fingerprint(self):
        compiled = compile_tpp("PUSH [Switch:SwitchID]", num_hops=4)

        def fingerprint(**changes):
            tpp = compiled.tpp
            kwargs = dict(instructions=tpp.instructions, memory=bytearray(tpp.memory),
                          mode=tpp.mode, word_bytes=tpp.word_bytes,
                          hop_size=tpp.hop_size, max_instructions=tpp.max_instructions)
            kwargs.update(changes)
            return Scenario("dumbbell").tpp("t", TPP(**kwargs)).to_spec().fingerprint()

        base = fingerprint()
        assert fingerprint() == base
        moved = [fingerprint(instructions=[*compiled.tpp.instructions] * 2),
                 fingerprint(memory=bytearray(len(compiled.tpp.memory) + 2)),
                 fingerprint(mode=AddressingMode.HOP, hop_size=2),
                 fingerprint(word_bytes=4), fingerprint(hop_number=1),
                 fingerprint(stack_pointer=2), fingerprint(app_id=7),
                 fingerprint(version=2), fingerprint(max_instructions=9)]
        assert len({base, *moved}) == len(moved) + 1


class TestDeclareTimeChecks:
    """A knob is checked once, on the dataclass that holds it, so a sweep
    axis meets the same check as the builder method — at declaration,
    never inside a worker."""

    @pytest.mark.parametrize("path,value", [
        ("collector.shards", 0), ("collector.transport", "pigeon"),
        ("collector.epoch_s", -1.0), ("collector.batch", 0),
        ("collector.delta", "no"), ("collector.tree", "x"),
        ("collector.shards", 2.5), ("collector.shards", True),
        ("collector.capacity", float("nan")), ("collector.batch", 8.0),
        ("collector.epoch_s", True), ("collector.epoch_s", "1"),
        ("collector.hosts", "h0"),
        ("remediation.policy", "nope"),
        ("tpp.monitor.sample_frequency", 0), ("tpp.monitor.__class__", 1)])
    def test_bad_axis_values_fail_at_axis(self, path, value):
        sweep = SweepSpec(pinned_base())
        with pytest.raises(SpecError,
                           match=re.escape(f"axis path '{path}': ")) as caught:
            sweep.axis(path, [value])
        if path.endswith("__class__"):
            # hasattr() let a dunder through to a bare setattr; the path is
            # now checked against the dataclass's fields.
            assert "TppSpec has no field" in str(caught.value)
        else:
            assert isinstance(caught.value.__cause__,
                              (ValueError, TypeError, UnknownRegistration))

    def test_builder_rejects_the_same_values_at_the_fluent_call(self):
        with pytest.raises(ValueError, match="shards must be an int >= 1"):
            pinned_base().collector(shards=0)
        # 2.5 shards used to pass declaration and raise TypeError at build.
        with pytest.raises(ValueError, match="shards must be an int >= 1"):
            pinned_base().collector(shards=2.5)
        with pytest.raises(UnknownRegistration, match="nope"):
            pinned_base().remediation("nope")
        with pytest.raises(ValueError, match="sample_frequency"):
            Scenario("dumbbell").tpp("t", "PUSH [Switch:SwitchID]",
                                     sample_frequency=0)

    @pytest.mark.parametrize("root,knob,value", [
        (root, knob, value)
        for root, knob in (("collector", "epoch_s"), ("faults", "onset_s"),
                           ("faults", "fail_at_s"),
                           ("faults", "repair_after_s"),
                           ("remediation", "period_s"),
                           ("remediation", "repair_time_s"))
        for value in (float("nan"), float("inf"))])
    def test_non_finite_times_fail_at_declaration(self, root, knob, value):
        # ``x <= 0`` is False for NaN, so these used to pass declaration and
        # fail inside the build or run — or, for the repair times, run on
        # silently.  The builder method is named after the axis root.
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            getattr(pinned_base(), root)(**{knob: value})
        with pytest.raises(SpecError, match=re.escape(
                f"axis path '{root}.{knob}': {knob} must be finite")):
            SweepSpec(pinned_base()).axis(f"{root}.{knob}", [value])


class TestSweepSpec:
    def test_grid_expansion_order_and_labels(self):
        sweep = (SweepSpec(monitor_scenario())
                 .axis("workload.messages.offered_load", [0.1, 0.2])
                 .axis("seed", [1, 2]))
        tasks = sweep.expand()
        assert len(sweep) == len(tasks) == 4
        assert [t.label for t in tasks] == [
            "workload.messages.offered_load=0.1,seed=1",
            "workload.messages.offered_load=0.1,seed=2",
            "workload.messages.offered_load=0.2,seed=1",
            "workload.messages.offered_load=0.2,seed=2"]
        assert len({t.fingerprint for t in tasks}) == 4

    def test_zip_mode_locksteps_axes(self):
        sweep = (SweepSpec(monitor_scenario(), mode="zip")
                 .axis("seed", [1, 2, 3])
                 .axis("workload.messages.offered_load", [0.1, 0.2, 0.3]))
        assert len(sweep.expand()) == 3

    def test_zip_mode_rejects_unequal_axes(self):
        sweep = (SweepSpec(monitor_scenario(), mode="zip")
                 .axis("seed", [1, 2])
                 .axis("workload.messages.offered_load", [0.1]))
        with pytest.raises(ValueError, match="equal-length"):
            sweep.expand()

    def test_replicate_expands_from_base_seed(self):
        tasks = SweepSpec(monitor_scenario(seed=5)).replicate(3).expand()
        assert [t.spec.seed for t in tasks] == [5, 6, 7]

    @pytest.mark.parametrize("count", [True, 2.5, float("nan"), 0, -1])
    def test_replicate_count_is_checked(self, count):
        # True silently meant one seed; 2.5 raised "not iterable".
        with pytest.raises(ValueError, match=r"replicate\(n\) must be an int"):
            SweepSpec(monitor_scenario()).replicate(count)

    def test_axis_paths_validate_eagerly(self):
        sweep = SweepSpec(monitor_scenario())
        with pytest.raises(SpecError, match="unknown root"):
            sweep.axis("nonsense.path", [1])
        with pytest.raises(SpecError, match="no declared workload"):
            sweep.axis("workload.nope.rate", [1])
        with pytest.raises(SpecError, match="no declared TPP"):
            sweep.axis("tpp.nope.num_hops", [1])
        with pytest.raises(SpecError, match="CollectorSpec has no"):
            sweep.axis("collector.nope", [1])

    def test_topology_axis_keyword_is_checked(self):
        # Expanded without complaint; each task then failed at build.
        sweep = SweepSpec(monitor_scenario())
        with pytest.raises(SpecError, match="axis path 'topology.bogus'.*"
                                            "topology_kwargs.*'bogus'"):
            sweep.axis("topology.bogus", [1, 2])
        assert sweep.axis("topology.num_stages", [2, 3]).expand()

    @pytest.mark.parametrize("path,values", [
        ("seed", ("a", "b")), ("seed", (True,)), ("seed", (1.5,)),
        ("stacks", (3,)), ("seed_ecmp", ("yes",)), ("compile_traces", (None,)),
        ("name", (7,))])
    def test_scalar_axis_values_are_typed(self, path, values):
        # A bare setattr used to accept these; the nonsense was only met
        # inside a worker.
        with pytest.raises(SpecError, match=f"axis path '{path}'"):
            SweepSpec(monitor_scenario()).axis(path, values)

    def test_duplicate_points_rejected(self):
        sweep = (SweepSpec(monitor_scenario())
                 .axis("seed", [1])
                 .axis("name", ["same", "same"]))
        with pytest.raises(ValueError, match="identical specs"):
            sweep.expand()

    def test_tpp_and_collector_axes_apply(self):
        base = monitor_scenario()
        base.collector(shards=1, transport="inline")
        tasks = (SweepSpec(base)
                 .axis("tpp.mon.sample_frequency", [1, 4])
                 .axis("collector.shards", [1, 2])).expand()
        assert len(tasks) == 4
        assert tasks[-1].spec.tpps[0].sample_frequency == 4
        assert tasks[-1].spec.collector.shards == 2

    def test_nested_collector_axes_apply(self):
        from repro.collect import TreeSpec
        base = monitor_scenario()
        base.collector(shards=4)
        tasks = (SweepSpec(base)
                 .axis("collector.tree.fanin", [2, 3])
                 .axis("collector.delta", [False, True])).expand()
        assert len(tasks) == 4
        last = tasks[-1].spec.collector
        assert last.tree == TreeSpec(fanin=3)
        assert last.delta is True
        # Sibling tasks never alias sub-specs: the first task kept fanin 2.
        assert tasks[0].spec.collector.tree == TreeSpec(fanin=2)
        assert tasks[0].spec.collector.delta is False

    def test_nested_collector_axis_paths_validate(self):
        base = monitor_scenario()
        base.collector(shards=2)
        sweep = SweepSpec(base)
        with pytest.raises(SpecError, match="TreeSpec has no"):
            sweep.axis("collector.tree.nope", [1])
        with pytest.raises(SpecError, match="collector.<field>"):
            sweep.axis("collector.shed.policy", ["drop-oldest"])
        with pytest.raises(SpecError, match="collector.<field>"):
            sweep.axis("collector.tree.fanin.extra", [1])

    @pytest.mark.parametrize("path,value", [
        ("collector.tree.fanin", 2.5), ("collector.tree.fanin", float("nan")),
        ("collector.tree.fanin", True)])
    def test_malformed_nested_collector_values_fail_at_the_axis(self, path,
                                                                 value):
        # fanin=2.5 used to pass declaration and raise TypeError inside the
        # sweep worker that built the plane.
        base = monitor_scenario()
        base.collector(shards=4)
        with pytest.raises(SpecError, match=f"axis path '{path}'"):
            SweepSpec(base).axis(path, [value])

    def test_top_level_tree_values_normalise(self):
        from repro.collect import TreeSpec
        base = monitor_scenario()
        base.collector(shards=4)
        tasks = (SweepSpec(base).axis("collector.tree", [None, 2])).expand()
        specs = [t.spec.collector for t in tasks]
        assert specs[0].tree is None
        assert specs[-1].tree == TreeSpec(fanin=2)


class TestSweepDifferential:
    def test_parallel_sweeps_are_byte_identical_to_serial(self):
        """The acceptance gate: >= 16 specs, 2- and 4-worker runs render the
        byte-identical canonical artifact to the serial reference."""
        sweep = (SweepSpec(monitor_scenario())
                 .axis("workload.messages.offered_load", [0.1, 0.2, 0.3, 0.4])
                 .replicate(4))
        tasks = sweep.expand()
        assert len(tasks) >= 16
        reference = SweepRunner(workers=1, duration_s=DT).run(tasks)
        assert len(reference.completed) == len(tasks)
        for workers in (2, 4):
            parallel = SweepRunner(workers=workers, duration_s=DT).run(tasks)
            assert parallel.canonical_json() == reference.canonical_json(), \
                f"artifact diverged at {workers} workers"
        merged = reference.merged_bundle()
        assert merged["experiment-counters"]["experiments"] == len(tasks)

    def test_streaming_outcomes_arrive_incrementally(self):
        sweep = SweepSpec(monitor_scenario()).replicate(3)
        seen = []
        result = SweepRunner(workers=2, duration_s=DT).run(
            sweep, on_outcome=seen.append)
        assert sorted(o.label for o in result.outcomes) == \
            sorted(o.label for o in seen)
        assert all(o.status == "done" for o in seen)


class TestFailurePaths:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_durations_rejected_at_construction(self, bad):
        # With timeout_s=None a NaN duration left its task short of
        # done/failed forever; it must never reach a worker.
        with pytest.raises(ValueError, match="duration_s"):
            SweepRunner(duration_s=bad)
        SweepRunner(duration_s=None)                 # "run until idle" stays legal

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_timeouts_rejected_at_construction(self, bad):
        # ``span.elapsed > nan`` is never true: a NaN budget timed nothing out.
        with pytest.raises(ValueError, match="timeout_s must be finite"):
            SweepRunner(workers=2, timeout_s=bad)

    def test_worker_exception_is_recorded(self):
        tasks = [SweepTask(index=0, label="boom", overrides={},
                           spec=workload_scenario("sweep-test-explode",
                                                  message="no luck").to_spec())]
        result = SweepRunner(workers=2, duration_s=DT).run(tasks)
        (outcome,) = result.outcomes
        assert outcome.status == "failed"
        assert "no luck" in outcome.error
        assert outcome.attempts == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_budget_and_accounting(self, workers):
        # The serial path used to retry without counting: retries == 0.
        tasks = [SweepTask(index=0, label="boom", overrides={},
                           spec=workload_scenario("sweep-test-explode").to_spec())]
        result = SweepRunner(workers=workers, duration_s=DT, retries=2).run(tasks)
        (outcome,) = result.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 3              # 1 try + 2 retries
        assert result.retries == 2
        assert result.accounting()["retries"] == 2

    @pytest.mark.parametrize("knob,value", [
        ("workers", 2.5), ("workers", float("nan")), ("workers", -1),
        ("workers", True), ("retries", float("nan")), ("retries", 1.5),
        ("retries", -1), ("worker_slices", 2.5), ("worker_slices", -1)])
    def test_malformed_counts_rejected_at_construction(self, knob, value):
        # retries=nan never retried (``attempts <= nan`` is False); 2.5
        # workers or worker slices raised TypeError only once running.
        with pytest.raises(ValueError, match=f"{knob} must be an int >= 0"):
            SweepRunner(**{knob: value})

    def test_serial_runner_records_failures_too(self):
        specs = [workload_scenario("sweep-test-explode").to_spec(),
                 monitor_scenario().to_spec()]
        result = SweepRunner(workers=1, duration_s=DT).run(specs)
        assert [o.status for o in result.outcomes] == ["failed", "done"]

    def test_worker_crash_is_accounted_and_pool_recovers(self):
        specs = [workload_scenario("sweep-test-crash").to_spec(),
                 monitor_scenario().to_spec()]
        result = SweepRunner(workers=2, duration_s=DT).run(specs)
        by_label = {o.label: o for o in result.outcomes}
        crashed = by_label["sweep-sweep-test-crash#0"]
        assert crashed.status == "failed" and "crashed" in crashed.error
        assert by_label["sweep-test#1"].status == "done"
        assert result.worker_crashes >= 1
        assert result.pool_restarts >= 1

    def test_timeout_kills_the_task_not_the_sweep(self):
        specs = [workload_scenario("sweep-test-sleepy", sleep_s=30.0).to_spec(),
                 monitor_scenario().to_spec()]
        result = SweepRunner(workers=2, duration_s=DT, timeout_s=0.5).run(specs)
        by_label = {o.label: o for o in result.outcomes}
        timed_out = by_label["sweep-sweep-test-sleepy#0"]
        assert timed_out.status == "timeout"
        assert "0.5" in timed_out.error
        assert by_label["sweep-test#1"].status == "done"

    def test_serial_timeout_is_enforced(self):
        # workers=1 used to ignore the budget: 30 s of sleep, then "done".
        specs = [workload_scenario("sweep-test-sleepy", sleep_s=30.0).to_spec(),
                 monitor_scenario().to_spec()]
        result = SweepRunner(workers=1, duration_s=DT, timeout_s=0.5).run(specs)
        assert [o.status for o in result.outcomes] == ["timeout", "done"]


class TestOneLoop:
    """Every worker count runs through one scheduling loop, so a raiser, a
    retry-then-pass and (with a budget) a timeout settle the same way on
    one worker as on two."""

    @pytest.mark.parametrize("timeout_s", [None, 0.5])
    def test_one_and_two_workers_settle_alike(self, tmp_path, timeout_s):
        # One marker path: it is part of the flaky spec's fingerprint.
        marker = tmp_path / "flaky-marker"
        specs = [workload_scenario("sweep-test-explode").to_spec(),
                 workload_scenario("sweep-test-flaky",
                                   marker=str(marker)).to_spec(),
                 monitor_scenario().to_spec()]
        if timeout_s is not None:
            # Without a budget the in-process run would sleep for 30 s.
            specs.insert(2, workload_scenario("sweep-test-sleepy",
                                              sleep_s=30.0).to_spec())
        runs, orders = {}, {}
        for workers in (1, 2):
            marker.unlink(missing_ok=True)
            order = orders[workers] = []
            runs[workers] = SweepRunner(
                workers=workers, duration_s=DT, retries=1, timeout_s=timeout_s
            ).run(specs, on_outcome=lambda outcome: order.append(outcome.index))
        assert runs[1].canonical_json() == runs[2].canonical_json()
        assert orders[1] == list(range(len(specs)))      # task order
        expected = [("failed", 2), ("done", 2), ("done", 1)]
        if timeout_s is not None:
            expected.insert(2, ("timeout", 1))
        assert [(o.status, o.attempts) for o in runs[1].outcomes] == expected
        clock_free = [{key: value for key, value in run.accounting().items()
                       if key not in ("workers", "wall_s",
                                      "experiments_per_second")}
                      for run in runs.values()]
        assert clock_free[0] == clock_free[1]
        assert clock_free[0]["retries"] == 2
        assert clock_free[0]["timeouts"] == (timeout_s is not None)
        assert clock_free[0]["pool_restarts"] == (timeout_s is not None)


class TestResumableManifest:
    def test_resume_skips_completed_and_artifact_is_identical(self, tmp_path):
        sweep = SweepSpec(monitor_scenario()).replicate(4)
        first = SweepRunner(workers=1, duration_s=DT,
                            manifest_dir=tmp_path).run(sweep)
        assert first.skipped_from_manifest == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["tasks"]) == 4
        assert all(entry["status"] == "done"
                   for entry in manifest["tasks"].values())

        second = SweepRunner(workers=1, duration_s=DT,
                             manifest_dir=tmp_path).run(sweep)
        assert second.skipped_from_manifest == 4
        assert all(o.source == "manifest" for o in second.outcomes)
        assert second.canonical_json() == first.canonical_json()
        assert (tmp_path / "artifact.json").read_text() == first.canonical_json()

    def test_failed_tasks_are_retried_on_resume(self, tmp_path):
        specs = [workload_scenario("sweep-test-explode").to_spec(),
                 monitor_scenario().to_spec()]
        first = SweepRunner(workers=1, duration_s=DT,
                            manifest_dir=tmp_path).run(specs)
        assert [o.status for o in first.outcomes] == ["failed", "done"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        statuses = sorted(entry["status"] for entry in manifest["tasks"].values())
        assert statuses == ["done", "failed"]
        assert manifest["accounting"]["failed"] == 1

        second = SweepRunner(workers=1, duration_s=DT,
                             manifest_dir=tmp_path).run(specs)
        assert second.skipped_from_manifest == 1   # only the success skips
        retried = [o for o in second.outcomes if o.source == "run"]
        assert len(retried) == 1 and retried[0].status == "failed"

    def test_manifest_bytes_are_indent_2_sorted_json(self, tmp_path,
                                                      monkeypatch):
        # Every write, telemetry side channel and a failure included, is
        # the stdlib's sorted indent=2 rendering of the ledger, byte for byte.
        specs = [monitor_scenario(seed=1).to_spec(),
                 workload_scenario("sweep-test-explode").to_spec(),
                 monitor_scenario(seed=2).to_spec()]
        checked = []
        write = SweepManifest.write

        def checked_write(manifest, accounting):
            write(manifest, accounting)
            expected = json.dumps({"version": 1,
                                   "accounting": manifest.accounting,
                                   "tasks": manifest.tasks},
                                  sort_keys=True, indent=2) + "\n"
            checked.append(manifest.path.read_text(encoding="utf-8")
                           == expected)

        monkeypatch.setattr(SweepManifest, "write", checked_write)
        first = SweepRunner(workers=1, duration_s=DT, worker_slices=2,
                            manifest_dir=tmp_path).run(specs)
        assert [o.status for o in first.outcomes] == ["done", "failed", "done"]
        assert checked == [True] * 4          # three settles and the close
        tasks = json.loads((tmp_path / "manifest.json").read_text())["tasks"]
        assert sum("telemetry" in entry for entry in tasks.values()) == 2

        second = SweepRunner(workers=1, duration_s=DT, worker_slices=2,
                             manifest_dir=tmp_path).run(specs)
        assert second.skipped_from_manifest == 2
        assert second.canonical_json() == first.canonical_json()
        assert (tmp_path / "artifact.json").read_text() == first.canonical_json()
        assert checked == [True] * 6

    def test_manifest_grows_incrementally(self, tmp_path):
        sweep = SweepSpec(monitor_scenario()).replicate(2)
        sizes = []

        def on_outcome(outcome):
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            sizes.append(len(manifest["tasks"]))

        SweepRunner(workers=1, duration_s=DT,
                    manifest_dir=tmp_path).run(sweep, on_outcome=on_outcome)
        assert sizes == [1, 2]

    @pytest.mark.parametrize("text", [
        "[]",                                                # AttributeError
        '{"version": 2, "tasks": {}, "accounting": {}}',     # accepted
        '{"version": 1, "tasks": [], "accounting": {}}',
        '{"version": 1, "tasks": {}}',
        '{"version": 1, "tasks": {"ab',                      # bare JSON error
    ])
    def test_malformed_manifest_is_named(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
        runner = SweepRunner(workers=1, duration_s=DT, manifest_dir=tmp_path)
        with pytest.raises(ValueError, match=re.escape(
                str(tmp_path / "manifest.json"))):
            runner.run([monitor_scenario().to_spec()])
