"""The public surface resolves: every ``__all__`` entry of every package exists.

A name deleted from a module but left in its package's ``__all__`` does not
fail ``import repro``; it fails only ``from repro.x import *`` or a user's
``from repro.x import name``.  This walks every package of :mod:`repro`.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter

import pytest

import repro


def packages() -> list[str]:
    """``repro`` and the dotted names of all its subpackages."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("name", packages())
def test_all_entries_resolve_once(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", ())
    assert [entry for entry in exported if not hasattr(package, entry)] == []
    assert [entry for entry, count in Counter(exported).items() if count > 1] == []
