"""Sweep plans: declarative expansion of one base spec into many.

A :class:`SweepSpec` takes a base :class:`~repro.session.ScenarioSpec` (or
the :class:`~repro.session.Scenario` that declares one) plus a set of
*axes* and expands them into a list of :class:`SweepTask`s — one
fully-resolved, picklable spec per experiment.  An axis edits a copy of
the base spec with ``dataclasses.replace``, so every value passes the same
``__post_init__`` checks the builder methods run, when the axis is
declared.  Three expansion modes cover the paper-reproduction workloads:

* ``grid`` (default) — the cartesian product of all axes, in axis
  declaration order (first axis varies slowest);
* ``zip`` — axes advance in lockstep (all must have equal length);
* seed replication — :meth:`SweepSpec.replicate` adds a ``seed`` axis, the
  common "same experiment, N seeds" pattern.

Axis paths address the spec declaratively::

    seed                      the master seed
    name                      the scenario label
    stacks / seed_ecmp        the stack and ECMP-salting toggles
    topology.<kwarg>          a topology-builder keyword
    collector.<field>         a .collector(...) knob (shards, epoch_s, ...)
    collector.tree.<field>    an aggregation-tree knob (fanin); materialises
                              a default TreeSpec when the base has none
    faults.<field>            a .faults(...) knob (loss_rate, corrupt_links,
                              onset_s, seed, ...)
    recorder.<field>          a .flight_recorder(...) knob (capacity,
                              sample_every, apps, links); materialises a
                              default RecorderSpec when the base has none
    workload.<name>.<kwarg>   a keyword of the named workload declaration
    tpp.<name>.<field>        a field of the named TPP declaration
                              (sample_frequency, num_hops, priority, ...)

Expansion is pure and deterministic: the same plan always yields the same
tasks in the same order with the same labels and fingerprints, which is
what lets the runner's manifest recognise completed work across runs.
"""

from __future__ import annotations

import importlib
import itertools
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable, Optional, Sequence, Union

from repro import check_count
from repro.session import Scenario, ScenarioSpec
from repro.session.spec import SCALAR_FIELDS, SpecError, ensure_picklable

__all__ = ["Axis", "SweepSpec", "SweepTask"]

#: Sub-spec roots: the axis head is also the ScenarioSpec attribute, and a
#: missing sub-spec is materialised with its defaults.  ``replace()`` re-runs
#: the class's ``__post_init__`` checks — the same ones the builder method
#: runs — so a bad axis value fails at declaration time.  Each class is named
#: ``module:class`` and imported only when an axis path names it, so a sweep
#: over seeds never imports the planes it does not sweep.
_SUBSPEC_PATHS = {"collector": "repro.session.scenario:CollectorSpec",
                  "faults": "repro.faults:FaultSpec",
                  "recorder": "repro.obs:RecorderSpec"}

#: Sub-specs one level further down: ``<root>.<field>.<leaf>``.
_NESTED_PATHS = {("collector", "tree"): "repro.collect:TreeSpec"}


def _default(where: str) -> Any:
    """A default instance of the ``module:class`` sub-spec ``where``."""
    module, _, name = where.partition(":")
    return getattr(importlib.import_module(module), name)()


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a dotted path and the values it takes."""

    path: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.path!r} needs at least one value")


@dataclass
class SweepTask:
    """One fully-resolved experiment: label + overrides + picklable spec."""

    index: int
    label: str
    overrides: dict[str, Any]
    spec: ScenarioSpec
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = self.spec.fingerprint()


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _rebuilt(path: str, declared: Any, name: str, value: Any) -> Any:
    """``replace(declared, name=value)``: the dataclass re-runs its own
    checks, and a rejected value is reported against the axis path."""
    if name not in {f.name for f in fields(declared)}:
        raise SpecError(f"axis path {path!r}: {type(declared).__name__} has "
                        f"no field {name!r}")
    try:
        return replace(declared, **{name: value})
    except (ValueError, TypeError, KeyError) as exc:
        raise SpecError(f"axis path {path!r}: {exc}") from exc


def _apply_override(spec: ScenarioSpec, path: str, value: Any) -> None:
    """Set one axis value on a (copied) spec, validating path and value."""
    head, _, rest = path.partition(".")
    if head in SCALAR_FIELDS:
        if rest:
            raise SpecError(f"axis path {path!r}: {head!r} takes no sub-path")
        # The spec checks its own scalars: rebuild a shallow copy to run them.
        setattr(spec, head, getattr(_rebuilt(path, spec, head, value), head))
        return
    if head == "topology":
        if not rest:
            raise SpecError(f"axis path {path!r} needs a topology kwarg name")
        # The spec checks its own kwargs: rebuild a shallow copy to run it.
        spec.topology_kwargs = _rebuilt(path, spec, "topology_kwargs",
                                        {**spec.topology_kwargs, rest: value}).topology_kwargs
        return
    if head in _SUBSPEC_PATHS:
        name, _, leaf = rest.partition(".")
        nested = _NESTED_PATHS.get((head, name))
        if not name or "." in leaf or (leaf and nested is None):
            shapes = [f"{head}.<field>"] + [f"{head}.{sub}.<field>"
                                            for root, sub in _NESTED_PATHS
                                            if root == head]
            raise SpecError(f"axis path {path!r} must be "
                            f"{' or '.join(shapes)}")
        current = getattr(spec, head) or _default(_SUBSPEC_PATHS[head])
        if leaf:
            # Rewrite the nested sub-spec immutably, so sibling tasks
            # sharing the base spec never alias state.
            value = _rebuilt(path, getattr(current, name) or _default(nested),
                             leaf, value)
        setattr(spec, head, _rebuilt(path, current, name, value))
        return
    if head == "workload":
        wname, _, kwarg = rest.partition(".")
        if not wname or not kwarg:
            raise SpecError(f"axis path {path!r} must be workload.<name>.<kwarg>")
        for wspec in spec.workloads:
            if wspec.name == wname:
                wspec.kwargs[kwarg] = value
                return
        raise SpecError(f"axis path {path!r}: no declared workload {wname!r} "
                        f"(have {[w.name for w in spec.workloads]})")
    if head == "tpp":
        tname, _, attr = rest.partition(".")
        if not tname or not attr:
            raise SpecError(f"axis path {path!r} must be tpp.<name>.<field>")
        for index, tspec in enumerate(spec.tpps):
            if tspec.name == tname:
                spec.tpps[index] = _rebuilt(path, tspec, attr, value)
                return
        raise SpecError(f"axis path {path!r}: no declared TPP {tname!r} "
                        f"(have {[t.name for t in spec.tpps]})")
    raise SpecError(
        f"axis path {path!r}: unknown root {head!r}; expected one of "
        f"{(*SCALAR_FIELDS, 'topology', *_SUBSPEC_PATHS, 'workload', 'tpp')}")


class SweepSpec:
    """A base spec plus swept axes; :meth:`expand` yields the task list.

    Args:
        base: a :class:`ScenarioSpec`, or a :class:`Scenario` standing for
            its ``spec``; the sweep keeps a validated copy (see
            :meth:`Scenario.to_spec`), so the base must be picklable.
        mode: ``"grid"`` (cartesian product, default) or ``"zip"``
            (lockstep axes of equal length).
    """

    def __init__(self, base: Union[Scenario, ScenarioSpec], *,
                 mode: str = "grid") -> None:
        if mode not in ("grid", "zip"):
            raise ValueError(f"unknown sweep mode {mode!r}; use 'grid' or 'zip'")
        if isinstance(base, Scenario):
            base = base.spec
        elif not isinstance(base, ScenarioSpec):
            raise TypeError("base must be a Scenario or a ScenarioSpec")
        self.base = base.copy().validate()
        self.mode = mode
        self.axes: list[Axis] = []

    # ---------------------------------------------------------------- fluency
    def axis(self, path: str, values: Iterable[Any]) -> "SweepSpec":
        """Add one swept dimension (see the module docstring for paths)."""
        values = tuple(values)
        if any(axis.path == path for axis in self.axes):
            raise ValueError(f"axis {path!r} is already declared")
        ensure_picklable(list(values), f"axis {path!r} values")
        # Validate the path (and each value's applicability) eagerly, on a
        # throwaway copy, so typos fail at declaration — not inside a worker.
        probe = self.base.copy()
        for value in values:
            _apply_override(probe, path, value)
        self.axes.append(Axis(path, values))
        return self

    def replicate(self, seeds: Union[int, Sequence[int]],
                  base_seed: Optional[int] = None) -> "SweepSpec":
        """Seed replication: run every point under each of these seeds.

        ``seeds`` is either an explicit sequence or a count ``n``, which
        expands to ``base_seed, base_seed+1, ..., base_seed+n-1``
        (``base_seed`` defaults to the base spec's seed).
        """
        if isinstance(seeds, (int, float)):
            # True is an int and 2.5 is not iterable: neither names a count.
            check_count("replicate(n)", seeds)
            start = self.base.seed if base_seed is None else base_seed
            seeds = range(start, start + seeds)
        return self.axis("seed", seeds)

    # -------------------------------------------------------------- expansion
    def _combinations(self) -> Iterable[tuple[Any, ...]]:
        if not self.axes:
            return [()]
        if self.mode == "grid":
            return itertools.product(*(axis.values for axis in self.axes))
        lengths = {len(axis.values) for axis in self.axes}
        if len(lengths) != 1:
            raise ValueError(
                f"zip mode needs equal-length axes; got "
                f"{ {axis.path: len(axis.values) for axis in self.axes} }")
        return zip(*(axis.values for axis in self.axes))

    def expand(self) -> list[SweepTask]:
        """The deterministic task list: one resolved spec per combination."""
        tasks: list[SweepTask] = []
        for combo in self._combinations():
            overrides = {axis.path: value
                         for axis, value in zip(self.axes, combo)}
            spec = self.base.copy()
            for path, value in overrides.items():
                _apply_override(spec, path, value)
            label = ",".join(f"{path}={_format_value(value)}"
                             for path, value in overrides.items()) or "base"
            tasks.append(SweepTask(index=len(tasks), label=label,
                                   overrides=overrides, spec=spec))
        fingerprints: dict[str, str] = {}
        for task in tasks:
            if task.fingerprint in fingerprints:
                raise ValueError(
                    f"sweep points {fingerprints[task.fingerprint]!r} and "
                    f"{task.label!r} resolve to identical specs; "
                    f"de-duplicate the axes")
            fingerprints[task.fingerprint] = task.label
        return tasks

    def __len__(self) -> int:
        if not self.axes:
            return 1
        if self.mode == "grid":
            total = 1
            for axis in self.axes:
                total *= len(axis.values)
            return total
        return len(self.axes[0].values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        axes = {axis.path: len(axis.values) for axis in self.axes}
        return (f"<SweepSpec base={self.base.name!r} mode={self.mode!r} "
                f"axes={axes} points={len(self)}>")
