"""The sharded collection plane (§4.5): mergeable summaries, shards, virtual IP.

The paper load-balances the collector tier behind a virtual IP and relies
on commutative aggregation operators to make sharding semantics-free.
This package is that deployment model, reproduced:

* :mod:`repro.collect.summary` — the :class:`MergeableSummary` protocol,
  the concrete monoids (counter, histogram, top-k, series) aggregators
  emit, each registered in :data:`SUMMARY_TYPES` so the generated
  commutativity suite can enumerate them, and :func:`fold`, the one
  combine step (copy the first, merge the rest) every tier uses;
* :mod:`repro.collect.delta` — the delta-channel wire format: per-source
  epoch diffs with sequence numbers and cumulative-resync fallback;
* :mod:`repro.collect.shard` — :class:`CollectorShard` end-host services
  with batching, per-epoch flushes, delta replay, and a bounded buffer
  whose tail drops are counted by reason;
* :mod:`repro.collect.virtual` — the :class:`VirtualCollector` front door
  and :class:`CollectPlane`, which consistently hash (app, host, key)
  across the tier and reconstruct the global view with an
  order-independent :meth:`~repro.collect.virtual.CollectPlane.merge`:
  shard views folded ``fanin`` at a time up a shard → rack → root tree
  (:class:`TreeSpec`), semantics-free by the monoid laws.

Experiments opt in with ``Scenario(...).collector(shards=N, ...)``; see
:mod:`repro.session.scenario`.  This package depends only on the network
substrate, so the end-host layer can emit its summary types without
circular imports.  Names resolve on first use: an experiment that declares
no collector loads only :mod:`~repro.collect.summary`.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "delta": ("DeltaChannel", "DeltaDecoder", "SummaryDelta",
              "delta_wire_bytes"),
    "shard": ("COLLECT_UDP_PORT_BASE", "CollectorShard", "Submission",
              "summary_wire_bytes"),
    "summary": ("CounterSummary", "HistogramSummary", "MergeableSummary",
                "SUMMARY_TYPES", "SeriesSummary", "SummaryBundle",
                "TopKSummary", "fold", "merge_summaries", "register_summary",
                "summary_copy", "summary_jsonable"),
    "virtual": ("CollectPlane", "PlaneStats", "TRANSPORTS", "TreeSpec",
                "VirtualCollector", "shard_index"),
})
