"""Parallel sweep orchestration over serializable scenario specs.

The sweep plane turns the session layer's fluent ``Scenario`` builder into
a fan-out engine: a :class:`SweepSpec` expands one base scenario into a
grid (or zip, or seed-replicated set) of picklable
:class:`~repro.session.ScenarioSpec` tasks, and a :class:`SweepRunner`
executes them serially or across a process pool — with per-task timeouts,
crash/retry accounting, incremental result streaming, and a resumable
on-disk manifest.  Because every experiment returns a commutative-monoid
:class:`~repro.session.ResultSummary`, the canonical sweep artifact is
byte-identical regardless of worker count or completion order::

    from repro.session import Scenario
    from repro.sweep import SweepSpec, SweepRunner

    base = (Scenario("dumbbell", seed=1, hosts_per_side=2)
            .tpp("mon", "PUSH [Queue:QueueOccupancy]", num_hops=6)
            .workload("messages", offered_load=0.2))
    sweep = (SweepSpec(base)
             .axis("workload.messages.offered_load", [0.1, 0.3])
             .replicate(4))
    result = SweepRunner(workers=4, duration_s=0.5).run(sweep)
    print(result.canonical_json())

Names resolve on first use: declaring a sweep does not load the process
pool (``runner``, with ``concurrent.futures`` and ``multiprocessing``).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "plan": ("Axis", "SweepSpec", "SweepTask"),
    "runner": ("SweepResult", "SweepRunner", "TaskOutcome"),
})
