"""Subset selections (Section 4.3.3).

A subset selection filters the experiments of a study based on the
observation function value of the previous (subset selection, predicate,
observation function) triple — the paper's ``OBS_VALUE`` macro.  The first
triple of a study measure conventionally selects all experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class SubsetSelection:
    """A named predicate over the previous observation value."""

    function: Callable[[float | None], bool]
    name: str = "subset"

    def __call__(self, previous_value: float | None) -> bool:
        return bool(self.function(previous_value))

    def __str__(self) -> str:
        return self.name


def select_all() -> SubsetSelection:
    """The ``default`` subset selection: keep every experiment."""
    return SubsetSelection(lambda _value: True, name="default")


def where(function: Callable[[float], bool], name: str = "where") -> SubsetSelection:
    """Keep experiments whose previous observation value satisfies ``function``.

    Experiments with no previous value (the first triple) are kept.
    """

    def check(previous_value: float | None) -> bool:
        if previous_value is None:
            return True
        return bool(function(previous_value))

    return SubsetSelection(check, name=name)


def value_positive() -> SubsetSelection:
    """Keep experiments whose previous observation value is strictly positive."""
    return where(lambda value: value > 0, name="OBS_VALUE > 0")
