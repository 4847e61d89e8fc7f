"""Shared test configuration: the one hypothesis profile registry.

Hypothesis profiles are process-wide, so they are registered here, once,
before any test module is imported.  ``default`` gives every property
test without its own ``@settings`` 80 examples; ``quick``
(``REPRO_HYPOTHESIS_PROFILE=quick``, CI's docs job) gives it 15.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=80)
settings.register_profile("quick", max_examples=15)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))
