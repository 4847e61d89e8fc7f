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
  shim, executor library, application deployment framework.
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
"""

__version__ = "1.0.0"

__all__ = ["core", "switches", "net", "endhost", "collect", "session", "apps",
           "baselines", "hardware", "stats", "obs"]
