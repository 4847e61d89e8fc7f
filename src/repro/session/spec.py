"""Scenario specs and result summaries — the declaration every scenario is,
and the faces of the session layer that cross a process boundary.

* :class:`ScenarioSpec` — the one object a scenario's declaration lives in
  (topology name + kwargs, stack placement, collector / fault / recorder
  sub-specs, TPP and workload descriptors, hooks, seed).  The fluent
  :class:`~repro.session.Scenario` writes into one (``scenario.spec``),
  :class:`~repro.session.Experiment` builds from one, and the sweep layer
  copies and edits them.  The spec and each sub-spec dataclass check their
  own knobs in ``__post_init__``, so a value is rejected when it is
  declared — by a builder method or a sweep axis alike.
  :meth:`Scenario.to_spec` is a copy plus :meth:`ScenarioSpec.validate`,
  which checks that every piece survives the pickle boundary a process
  pool (:mod:`repro.sweep`) puts between declaration and run; the rebuilt
  run is byte-identical.
* :class:`ResultSummary` — a slim, picklable view of an
  :class:`~repro.session.ExperimentResult`: the scalar accounting plus each
  app's *mergeable* summary, so worker processes ship monoid elements home
  instead of live simulator objects.
* :func:`spec_fingerprint` — a stable content hash (blake2b over a
  canonical JSON rendering) used by the sweep manifest to recognise
  completed specs across runs and across processes.

Serializability rules
---------------------

Everything in a spec must survive ``pickle`` **by reference or by value**:

* topology/workload names resolve through the registries, so they travel
  as strings;
* callables (workload factories, aggregator factories, hooks, callbacks)
  must be module-level functions/classes — or :func:`functools.partial`
  applications of one over picklable arguments.  Lambdas and closures are
  rejected eagerly by :meth:`Scenario.to_spec` with a :class:`SpecError`
  naming the offending piece, *before* a worker ever chokes on them;
* TPP programs travel as assembly source text (preferred), or as
  ``CompiledTPP``/``TPP`` objects when those pickle cleanly.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import pickle
from copy import deepcopy
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.collect import summary_copy, summary_jsonable
from repro.core.packet_format import TPP

from .registry import TOPOLOGIES

if TYPE_CHECKING:  # pragma: no cover
    from repro.collect import SummaryBundle
    from .experiment import ExperimentResult
    from .scenario import Scenario

__all__ = [
    "RESULT_COUNTERS", "ResultSummary", "SCALAR_FIELDS", "ScenarioSpec", "SpecError",
    "callable_ref", "ensure_picklable", "spec_fingerprint", "spec_jsonable",
]


class SpecError(TypeError):
    """A scenario piece cannot cross a process boundary (and why)."""


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------
def _describe_callable(fn: Any) -> str:
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) \
        or getattr(fn, "__name__", None) or repr(fn)
    return f"{module}:{qualname}"


def callable_ref(fn: Any) -> Any:
    """A canonical, process-stable rendering of a spec callable.

    Module-level callables render as ``"module:qualname"``; ``partial``
    applications render structurally.  Raises :class:`SpecError` for
    lambdas and closures — the two shapes pickle cannot ship by reference.
    """
    if isinstance(fn, functools.partial):
        return {"partial": callable_ref(fn.func),
                "args": [spec_jsonable(arg) for arg in fn.args],
                "kwargs": {key: spec_jsonable(value)
                           for key, value in sorted(fn.keywords.items())}}
    qualname = getattr(fn, "__qualname__", "")
    if "<lambda>" in qualname:
        raise SpecError(
            f"lambda {_describe_callable(fn)} cannot cross a process "
            f"boundary; use a module-level function (or functools.partial "
            f"of one)")
    if "<locals>" in qualname:
        raise SpecError(
            f"closure {_describe_callable(fn)} is defined inside a function "
            f"and cannot cross a process boundary; hoist it to module level "
            f"and bind its parameters with functools.partial")
    return _describe_callable(fn)


def ensure_picklable(value: Any, where: str) -> None:
    """Raise :class:`SpecError` (with the spec path) when pickling fails."""
    if callable(value) and not isinstance(value, type):
        try:
            callable_ref(value)
        except SpecError as exc:
            raise SpecError(f"{where}: {exc}") from None
    try:
        pickle.loads(pickle.dumps(value))
    except Exception as exc:
        raise SpecError(
            f"{where}: {type(value).__name__} does not survive pickling "
            f"({exc}); specs may only carry picklable values") from None


# --------------------------------------------------------------------------
# Canonical rendering / fingerprint
# --------------------------------------------------------------------------
#: A TPP renders field-wise like a dataclass, under its constructor's
#: parameter names: its program and its packet state.
_TPP_FIELDS = ("instructions", "memory", "mode", "word_bytes", "hop_number",
               "stack_pointer", "hop_size", "app_id", "encap_proto", "version",
               "execution_halted", "max_instructions")


def spec_jsonable(value: Any) -> Any:
    """Render any spec value as deterministic, JSON-able structure.

    Used for fingerprints and the sweep manifest, so the rendering must be
    stable across processes and runs: dict keys are sorted, callables render
    as import references, dataclasses and TPPs field-wise, and anything else
    falls back to a hash of its pickled bytes (never ``repr`` — reprs can
    leak memory addresses).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [spec_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): spec_jsonable(value[key])
                for key in sorted(value, key=str)}
    if isinstance(value, functools.partial) or callable(value):
        return callable_ref(value)
    names = (_TPP_FIELDS if isinstance(value, TPP)
             else [f.name for f in fields(value)]
             if is_dataclass(value) and not isinstance(value, type) else None)
    if names is not None:
        rendered = {name: spec_jsonable(getattr(value, name)) for name in names}
        rendered["__type__"] = type(value).__name__
        return rendered
    renderer = getattr(value, "as_dict", None)
    if callable(renderer):
        return renderer()
    encoder = getattr(value, "encode", None)
    if callable(encoder):                        # an object's wire bytes
        try:
            encoded = encoder()
            if isinstance(encoded, (bytes, bytearray)):
                return {"__type__": type(value).__name__,
                        "wire_blake2b": hashlib.blake2b(
                            bytes(encoded), digest_size=16).hexdigest()}
        except TypeError:
            pass
    digest = hashlib.blake2b(pickle.dumps(value), digest_size=16).hexdigest()
    return {"__type__": type(value).__name__, "pickle_blake2b": digest}


def spec_fingerprint(spec: "ScenarioSpec") -> str:
    """A stable content hash of a spec's canonical rendering."""
    canonical = json.dumps(spec_jsonable(spec), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


# --------------------------------------------------------------------------
# The spec itself
# --------------------------------------------------------------------------
#: The spec's top-level scalars and the type each value must have (``bool``
#: is an ``int`` in Python; a seed may not be one).  ``name`` may also be
#: None.  These are the sweep's scalar axes.
SCALAR_FIELDS = {"seed": int, "name": str, "stacks": bool, "seed_ecmp": bool}


def _check_topology_kwargs(topology: str, kwargs: dict[str, Any]) -> None:
    """Reject a keyword ``topology``'s builder would not take.

    The builder's own keywords count, and so do :class:`TPPSwitch`'s when
    the builder forwards ``**switch_kwargs`` to every switch; a builder
    with any other ``**`` catch-all takes every keyword.
    """
    params = inspect.signature(TOPOLOGIES.get(topology)).parameters
    catch_all = next((p.name for p in params.values() if p.kind is p.VAR_KEYWORD), None)
    accepted = set(list(params)[1:]) - {catch_all}          # after sim
    unknown = [key for key in kwargs if key not in accepted]
    if unknown and catch_all == "switch_kwargs":
        # Imported only for a switch knob: a sweep's parent process builds
        # nothing, and declaring its scenario should load no switch code.
        from repro.switches.switch import TPPSwitch
        # The network passes sim, name and switch_id itself.
        accepted |= set(list(inspect.signature(TPPSwitch).parameters)[3:])
    elif catch_all is not None:
        return
    for key in unknown:
        if key not in accepted:
            raise ValueError(f"topology_kwargs: topology {topology!r} takes no "
                             f"keyword {key!r}; it takes {', '.join(sorted(accepted))}")


@dataclass
class ScenarioSpec:
    """Everything a :class:`Scenario` declares; the scenario's only state.

    Declare through the fluent :class:`Scenario` (its ``spec``), take a
    validated copy with :meth:`Scenario.to_spec`, and wrap one back into a
    fluent scenario with :meth:`to_scenario`.  Equal specs with equal seeds
    build byte-identical runs — the determinism contract the sweep layer's
    differential tests pin down.
    """

    topology: str
    seed: int = 1
    name: Optional[str] = None
    topology_kwargs: dict[str, Any] = field(default_factory=dict)
    stacks: bool = True
    hosts: Optional[list[str]] = None
    seed_ecmp: bool = False
    # Always False; every fingerprint renders it (ROADMAP 1a's suite half removes it).
    compile_traces: bool = False
    collector: Optional[Any] = None               # CollectorSpec
    faults: Optional[Any] = None                  # FaultSpec
    remediation: Optional[Any] = None             # RemediationSpec
    recorder: Optional[Any] = None                # obs.RecorderSpec
    tpps: list[Any] = field(default_factory=list)         # TppSpec
    workloads: list[Any] = field(default_factory=list)    # WorkloadSpec
    setup_hooks: list[Any] = field(default_factory=list)
    finalize_hooks: list[Any] = field(default_factory=list)
    result_mapper: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            TOPOLOGIES.get(self.topology)        # raises with the registered menu
        _check_topology_kwargs(self.topology, self.topology_kwargs)
        for knob, kind in SCALAR_FIELDS.items():
            value = getattr(self, knob)
            if knob == "name" and value is None:
                continue
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                raise ValueError(f"{knob} takes {kind.__name__} values, "
                                 f"got {value!r}")
        if isinstance(self.hosts, str):
            raise ValueError(f"hosts must be a list of host names, not the "
                             f"bare string {self.hosts!r}")
        if self.hosts is not None:
            self.hosts = list(self.hosts)
        if self.compile_traces is not False:
            raise ValueError("compile_traces is gone: every TPP hop runs the "
                             "bound plan")

    def copy(self) -> "ScenarioSpec":
        """An independent copy: declarations are deep-copied, while hooks and
        the result mapper are shared by reference."""
        shared = (*self.setup_hooks, *self.finalize_hooks, self.result_mapper)
        return deepcopy(self, {id(obj): obj for obj in shared})

    # ------------------------------------------------------------- validation
    def validate(self) -> "ScenarioSpec":
        """Check every piece crosses a process boundary; raise SpecError."""
        ensure_picklable(self.topology_kwargs, f"topology {self.topology!r} kwargs")
        if self.collector is not None:
            ensure_picklable(self.collector, "collector spec")
        if self.faults is not None:
            ensure_picklable(self.faults, "fault spec")
        if self.remediation is not None:
            ensure_picklable(self.remediation, "remediation spec")
        if self.recorder is not None:
            ensure_picklable(self.recorder, "recorder spec")
        for tpp in self.tpps:
            where = f"tpp {tpp.name!r}"
            ensure_picklable(tpp.program, f"{where} program")
            ensure_picklable(tpp.packet_filter, f"{where} filter")
            if tpp.aggregator is not None:
                ensure_picklable(tpp.aggregator, f"{where} aggregator factory")
            for index, callback in enumerate(tpp.callbacks):
                ensure_picklable(callback, f"{where} collect callback #{index}")
        for workload in self.workloads:
            where = f"workload {workload.name!r}"
            ensure_picklable(workload.workload, f"{where} factory")
            ensure_picklable(workload.kwargs, f"{where} kwargs")
        for index, hook in enumerate(self.setup_hooks):
            ensure_picklable(hook, f"setup hook #{index}")
        for index, hook in enumerate(self.finalize_hooks):
            ensure_picklable(hook, f"finalize hook #{index}")
        if self.result_mapper is not None:
            ensure_picklable(self.result_mapper, "result mapper")
        # Sanity: the rendering the fingerprint hashes must serialise.
        json.dumps(spec_jsonable(self), sort_keys=True)
        return self

    def to_scenario(self) -> "Scenario":
        """A fluent scenario declaring a copy of this spec."""
        from .scenario import Scenario

        scenario = Scenario(self.topology)
        scenario.spec = self.copy()
        return scenario

    def fingerprint(self) -> str:
        return spec_fingerprint(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ScenarioSpec {self.name!r} topology={self.topology!r} "
                f"seed={self.seed} tpps={[t.name for t in self.tpps]} "
                f"workloads={[w.name for w in self.workloads]}>")


# --------------------------------------------------------------------------
# The result view that crosses back
# --------------------------------------------------------------------------
#: The canonical counter set: public name -> key of ``Experiment.counters()``.
#: Each name is an :class:`~repro.session.ExperimentResult` attribute and an
#: entry of :attr:`ResultSummary.counters` — the byte contract every pinned
#: digest and sweep fingerprint rests on (a sweep's merged view sums them
#: across experiments), so rows are added or renamed only with a re-pin.  A
#: key the run never produced (no plane, no fault plane) reads as zero.
RESULT_COUNTERS = {
    "events_executed": "sim.events_executed",
    "tpps_attached": "shim.tpps_attached",
    "tpp_bytes_added": "shim.tpp_bytes_added",
    "tpps_completed": "shim.tpps_completed",
    "tpps_echoed": "shim.tpps_echoed",
    "instrumentation_overhead_bytes": "shim.overhead_bytes",
    "tpps_received": "apps.tpps_received",
    "tpps_truncated": "apps.tpps_truncated",
    # Read 0; every canonical result renders them (ROADMAP 1a's suite half removes them).
    "traces_compiled": "tcpu.traces_compiled",
    "trace_executions": "tcpu.trace_executions",
    "trace_fallbacks": "tcpu.trace_fallbacks",
    "collect_shards": "collect.shards",
    "summaries_submitted": "collect.summaries_submitted",
    "summary_parts_delivered": "collect.delivered",
    "summary_parts_dropped": "collect.dropped",
    "summary_flushes": "collect.flushes",
    "summary_bytes_on_wire": "collect.bytes_routed",
    "summary_delta_applied": "collect.delta_applied",
    "summary_delta_gaps": "collect.delta_gaps",
    "summary_delta_resyncs": "collect.delta_resyncs",
    "fault_events_applied": "faults.events_applied",
    "packets_corrupted": "link.packets_corrupted",
    "link_down_transitions": "link.down_transitions",
    "link_up_transitions": "link.up_transitions",
    "remediation_actions": "faults.remediation_actions",
}


def counters_under(counters: dict[str, int], prefix: str) -> dict[str, int]:
    """The non-zero ``<prefix><name>`` entries of a snapshot, by ``name``."""
    return {key[len(prefix):]: count for key, count in counters.items()
            if count and key.startswith(prefix)}


class JourneyQueries:
    """The flight-recorder query face shared by results and summaries.

    Expects a ``journeys`` attribute (a :class:`repro.obs.JourneyLog`, or
    ``None`` when the scenario declared no ``.flight_recorder(...)``).
    """

    _journeys_owner = "result"

    def _journeys(self):
        if self.journeys is None:
            raise TypeError(
                f"no flight-recorder data on this {self._journeys_owner}; "
                f"build the scenario with .flight_recorder(...)")
        return self.journeys

    def journey(self, packet_id: int):
        """One recorded packet's ordered hop records (or None)."""
        return self._journeys().journey(packet_id)

    def trace_flow(self, flow_id: int) -> list:
        """Every recorded packet journey of one flow."""
        return self._journeys().trace_flow(flow_id)

    def explain_drop(self, packet_id: Optional[int] = None, **filters):
        """Drop forensics (see :meth:`repro.obs.JourneyLog.explain_drop`)."""
        return self._journeys().explain_drop(packet_id, **filters)


@dataclass
class ResultSummary(JourneyQueries):
    """The picklable slice of an :class:`ExperimentResult`.

    Carries the scalar accounting plus each app's *mergeable* summary
    (:meth:`ExperimentResult.merged_summary`: the collector tier's merged
    view when the scenario ran with ``.collector(...)``, else the fold of
    per-host ``summarize()`` snapshots in sorted host order).  Live
    simulator handles never cross;
    workers ship monoid elements, the parent merges them.
    """

    scenario: str
    topology: str
    seed: int
    duration_s: Optional[float]
    end_time_s: float
    counters: dict[str, int]
    app_summaries: dict[str, Any] = field(default_factory=dict)
    experiments: int = 1
    # Observability side channel (repro.obs): the experiment's telemetry
    # snapshot when one was enabled.  Never part of as_jsonable() — the
    # canonical artifact must be byte-identical with telemetry on or off.
    telemetry: Optional[dict] = None
    # Flight-recorder side channels (same exclusion rule): the recorder's
    # accounting counters and the picklable JourneyLog, when the scenario
    # declared .flight_recorder(...).  This is how journey()/explain_drop()
    # round-trip through a sweep worker: the log's plain tuples pickle home
    # and the query API works identically in the parent.
    flightrec: Optional[dict] = None
    journeys: Optional[Any] = None                # repro.obs.JourneyLog
    # The whole ``Experiment.counters()`` snapshot (same exclusion rule):
    # ``counters`` above is the canonical 25-name slice of it; everything
    # else a component counts — drop categories, TCPU and switch totals —
    # rides here, so it survives the process boundary without a new field.
    snapshot: Optional[dict[str, int]] = None

    _journeys_owner = "summary"

    @classmethod
    def from_result(cls, result: "ExperimentResult") -> "ResultSummary":
        counters = {name: int(result.counters.get(key, 0))
                    for name, key in RESULT_COUNTERS.items()}
        app_summaries: dict[str, Any] = {}
        for app in sorted(result.apps):
            merged = result.merged_summary(app)
            if merged is not None:
                app_summaries[app] = merged
        return cls(scenario=result.scenario, topology=result.topology,
                   seed=result.seed, duration_s=result.duration_s,
                   end_time_s=result.end_time_s, counters=counters,
                   app_summaries=app_summaries,
                   telemetry=result.telemetry,
                   flightrec=result.flightrec,
                   journeys=result.journeys,
                   snapshot=dict(result.counters))

    # ------------------------------------------------------------ monoid face
    def bundle(self) -> "SummaryBundle":
        """This experiment as one mergeable bundle (counters + app parts).

        Folding the bundles of every experiment in a sweep (in any order,
        from any worker partition) produces the sweep's invariant merged
        view: integer counters sum, app summaries merge monoidally.
        """
        from repro.collect import CounterSummary, SummaryBundle

        parts: dict[Any, Any] = {
            "experiment-counters": CounterSummary(
                dict(self.counters, experiments=self.experiments)),
        }
        for app, summary in self.app_summaries.items():
            parts[f"app:{app}"] = summary_copy(summary)
        return SummaryBundle(parts)

    def as_jsonable(self) -> dict:
        """Canonical JSON-able rendering (stable ordering throughout)."""
        return {
            "scenario": self.scenario,
            "topology": self.topology,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "end_time_s": self.end_time_s,
            "experiments": self.experiments,
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "apps": {app: summary_jsonable(self.app_summaries[app])
                     for app in sorted(self.app_summaries)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ResultSummary {self.scenario!r} seed={self.seed} "
                f"events={self.counters.get('events_executed')} "
                f"apps={sorted(self.app_summaries)}>")
