"""Repo-wide pytest configuration: tier-1 is a function of the checkout.

Every hypothesis-using test file in ``tests/`` and ``benchmarks/`` inherits
one of two profiles, selected by the ``HYPOTHESIS_PROFILE`` environment
variable:

``tier1`` (the default; what the tier-1 gate and the blocking CI jobs run)
    ``derandomize=True, database=None``: the examples a test sees are a
    function of the checkout's source alone, and nothing is written into
    the checkout (hypothesis' source-constants cache, the one thing it
    still stores, goes to the system temp directory instead of
    ``.hypothesis/``) — two runs of the same checkout collect, run and
    pass the same things.

``explore`` (opt in: ``HYPOTHESIS_PROFILE=explore python -m pytest``)
    hypothesis' own defaults: fresh random examples every run, failures
    replayed from the ``.hypothesis/`` example database.  This is for
    *hunting*; it is allowed to go red by chance.

The rule that ties the two together: **every find is copied into a seeded
table before its fix lands** (``FOUND_SAMPLES`` in
``tests/test_statistics_properties.py`` is the pattern) — the always-on
half of each property suite must fail on the bug without hypothesis'
help, so the fix is pinned in every checkout, not in one machine's
database.

Per-test ``@settings(...)`` decorators only set ``max_examples`` and
``deadline``; everything else comes from the profile loaded here, which
pytest imports before any test module.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    pass
else:
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore")
    profile = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
    settings.load_profile(profile)
    if profile == "tier1":
        set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "repro-hypothesis-tier1")
