"""The paper's dataplane tasks, refactored over the TPP interface (§2).

Each app module is imported on first use (``repro.apps.conga``), not with
the package.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    app: (app,) for app in ("conga", "losslocal", "microburst", "netsight",
                            "netverify", "rcp", "sketches")})
