"""Pin of every registry scenario's study fingerprint.

A campaign store resumes an archived study only when the study's
fingerprint (:func:`repro.store.manifest.study_fingerprint`, a SHA-256
over its declarative description) is unchanged, so a refactor that
silently changes one — for example by dropping a field from a config
dataclass whose ``repr`` feeds the description — makes every existing
archive of that study unresumable.

``tests/data/study_fingerprint_golden.json`` maps each registered
scenario to the fingerprint of ``scenario.build()`` (its default
experiment count and seed).  It was generated at commit ``c7444a6``.  A
change that means to invalidate archives regenerates it in the same
commit and says why.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import DEFAULT_REGISTRY
from repro.store.manifest import study_fingerprint

GOLDEN_PATH = Path(__file__).parent / "data" / "study_fingerprint_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_registered_scenario():
    assert sorted(GOLDEN) == sorted(DEFAULT_REGISTRY.names())


@pytest.mark.parametrize("scenario_name", sorted(GOLDEN))
def test_study_fingerprint_matches_golden(scenario_name):
    study = DEFAULT_REGISTRY.get(scenario_name).build()
    assert study_fingerprint(study) == GOLDEN[scenario_name]
