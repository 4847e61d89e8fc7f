"""The fault plane: link degradation and its injection.

Two cooperating pieces (see the module docstrings for the contracts):

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`,
  the deterministic picklable event trace, plus the scenario-level
  :class:`FaultSpec` declaration;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which replays a
  plan through the simulator onto the live links.

The degradation mechanics themselves live on :class:`repro.net.link.Link`
(``set_loss`` / ``set_down`` / ``set_up``); this package only decides
*when* and *what*, so the net layer stays usable without it.  The
detector that names a lossy link from the outside is a TPP app,
:mod:`repro.apps.losslocal`.  Names resolve on first use, so declaring a
fault plan loads only ``plan``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "injector": ("FaultInjector", "link_rng"),
    "plan": ("FAULT_KINDS", "FaultEvent", "FaultPlan", "FaultSpec"),
})
