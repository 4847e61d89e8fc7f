"""repro — a reproduction of "Millions of Little Minions" (TPP, SIGCOMM 2014).

Subpackages
-----------

* :mod:`repro.core` — tiny packet programs: ISA, assembler/compiler, wire
  format, the TCPU execution engine and static analysis.
* :mod:`repro.switches` — the TPP-capable switch model (match-action
  pipeline, memory map, statistics, queues).
* :mod:`repro.net` — the discrete-event network substrate (simulator, links,
  hosts, topologies, traffic generators, a simple TCP).
* :mod:`repro.endhost` — the end-host stack: TPP control plane, dataplane
  shim, executor library, per-host aggregators.
* :mod:`repro.collect` — the §4.5 collection plane: mergeable summary
  monoids, collector shards, and the virtual-IP front door with an
  order-independent global merge.
* :mod:`repro.session` — the unified experiment API: the fluent
  :class:`~repro.session.Scenario` builder, the
  :class:`~repro.session.Experiment` runner, and the topology/workload
  registries.
* :mod:`repro.apps` — the paper's dataplane tasks refactored over TPPs
  (micro-burst detection, RCP*, NetSight, CONGA*, sketches, verification).
* :mod:`repro.baselines` — the comparators (ECMP, TCP, polling monitor,
  exact counting).
* :mod:`repro.hardware` — the §6 feasibility models (latency, area, end-host
  dataplane throughput).
* :mod:`repro.stats` — series/CDF helpers and experiment summaries.
* :mod:`repro.obs` — the runtime observability plane: spans, metrics
  registry, flight recorder, Perfetto trace export.
* :mod:`repro.fidelity` — ``python -m repro.fidelity``: the paper's tables
  and figures against what this reproduction measures, with tolerances.

Importing a package imports none of its planes: ``apps``, ``collect``,
``faults``, ``net``, ``obs`` and ``sweep`` resolve their re-exported names
on first use, from one export table each (:func:`lazy_exports`), so a
script loads only the layers it runs.
"""

import importlib
import sys

__version__ = "1.0.0"

__all__ = ["core", "switches", "net", "endhost", "collect", "session", "apps",
           "baselines", "hardware", "stats", "obs"]


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """PEP 562 hooks that import a package's re-exports on first use.

    ``table`` maps each submodule to the names the package re-exports from
    it; a submodule listing its own name exports the module itself.  Returns
    ``(__all__, __getattr__, __dir__)`` for the package to bind.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(f"{package}.{module}")
        namespace[name] = value = loaded if name == module else getattr(loaded, name)
        return value

    return sorted(origin), __getattr__, lambda: sorted({*namespace, *origin})


def check_count(name: str, value, minimum: int = 1) -> None:
    """Reject a count knob that is not a real ``int`` (``bool`` is not) or is
    below ``minimum``: NaN, 2.5 and ``True`` would pass a bare ``< 1``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
