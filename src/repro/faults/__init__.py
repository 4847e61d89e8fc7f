"""The fault plane: link degradation, injection, and remediation.

Three cooperating pieces (see the module docstrings for the contracts):

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`,
  the deterministic picklable event trace, plus the scenario-level
  :class:`FaultSpec` / :class:`RemediationSpec` declarations;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which replays a
  plan through the simulator onto the live links;
* :mod:`repro.faults.policy` — the ``@register_policy`` registry and the
  :class:`RemediationController` loop reacting to detector verdicts.

The degradation mechanics themselves live on :class:`repro.net.link.Link`
(``set_loss`` / ``set_down`` / ``set_up``); this package only decides
*when* and *what*, so the net layer stays usable without it.  Names
resolve on first use, so declaring a fault plan loads only ``plan``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "injector": ("FaultInjector", "link_rng"),
    "plan": ("FAULT_KINDS", "FaultEvent", "FaultPlan", "FaultSpec",
             "RemediationSpec"),
    "policy": ("POLICIES", "LinkVerdict", "RemediationController",
               "RemediationPolicy", "max_deficits", "ranked_links",
               "register_policy"),
})
