"""Tracing from outside the program: in-memory spans and a cProfile roll-up.

The program under test carries no instrumentation yet, so every span is
recorded here, around the public call that crosses into a layer.  Calls
the benchmark makes itself are wrapped with :meth:`Tracer.span`; calls one
layer makes into another (``CampaignStore.append`` -> ``encode_block``)
are reached with :meth:`Tracer.patched`, which swaps the module attribute
for a spanning wrapper and restores it afterwards.  Spans stay in memory
until :meth:`Tracer.write` — nothing is written while a run is timed.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_trace_id", "_index")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str | None) -> None:
        self._tracer = tracer
        self._name = name
        self._trace_id = trace_id

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1] if stack else -1
        trace_id = self._trace_id
        if trace_id is None and parent >= 0:
            trace_id = tracer.spans[parent][1]
        self._index = len(tracer.spans)
        stack.append(self._index)
        tracer.spans.append([self._name, trace_id, time.perf_counter(), 0.0, parent])

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer.spans[self._index][3] = end
        tracer._stack.pop()


class Tracer:
    """Spans as ``[name, trace_id, start, end, parent_index]`` rows, in start order.

    A span opened without a ``trace_id`` inherits its parent's, so every
    span of one experiment shares the id ``study:index``.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def span(self, name: str, trace_id: str | None = None) -> _SpanContext:
        """Context manager recording one span around its body."""
        return _SpanContext(self, name, trace_id)

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``function`` with a span named ``name`` around every call."""

        def spanned(*args: Any, **kwargs: Any) -> Any:
            with _SpanContext(self, name, None):
                return function(*args, **kwargs)

        return spanned

    @contextmanager
    def patched(self, *targets: tuple[Any, str, str]) -> Iterator[None]:
        """Span every call through ``(owner, attribute, span name)`` targets."""
        originals: list[tuple[Any, str, Any]] = []
        try:
            for owner, attribute, name in targets:
                original = getattr(owner, attribute)
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(original, name))
            yield
        finally:
            for owner, attribute, original in originals:
                setattr(owner, attribute, original)

    # -- reading the spans back ----------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(count, total seconds, self seconds)``.

        Self time is a span's duration minus its direct children's.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float, float]] = {}
        for index, (name, _, start, end, _) in enumerate(self.spans):
            count, total, own = totals.get(name, (0, 0.0, 0.0))
            duration = end - start
            totals[name] = (count + 1, total + duration, own + duration - child_time[index])
        return totals

    def write(self, path: Path) -> None:
        """One JSON object per span: id, name, trace, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, trace_id, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "trace": trace_id,
                            "start": start,
                            "end": end,
                            "parent": None if parent < 0 else parent,
                        }
                    )
                    + "\n"
                )


def span_ms(totals: dict[str, tuple[int, float, float]], name: str) -> float:
    """Mean duration of the spans called ``name`` in milliseconds (0 if none)."""
    count, total, _ = totals.get(name, (0, 0.0, 0.0))
    return total / count * 1e3 if count else 0.0


def share_of(
    totals: dict[str, tuple[int, float, float]], prefix: str, whole: float
) -> float:
    """Self time of every span under ``prefix`` as a fraction of ``whole``.

    Self times never overlap, so the shares of disjoint prefixes plus the
    root span's own self time add up to the root's duration.
    """
    own = sum(values[2] for name, values in totals.items() if name.startswith(prefix))
    return own / whole if whole else 0.0


# ---------------------------------------------------------------------------
# cProfile roll-up by package
# ---------------------------------------------------------------------------


def layer_of(filename: str, package_root: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if filename == "~" or filename.startswith("<"):
        return "builtins"
    if not filename.startswith(package_root):
        return "other"
    parts = filename[len(package_root):].strip("/\\").removesuffix(".py").split("/")
    if parts[0] == "sim" and len(parts) > 1:
        return f"sim.{parts[1]}"
    if parts[0] == "core" and len(parts) > 1:
        if parts[1] in ("runtime", "statemachine"):
            return f"core.{parts[1]}"
        return "core.other"
    if parts[0] in ("apps", "scenarios"):
        return "apps"
    return parts[0]


def profile_rollup(
    profile: cProfile.Profile, package_root: str
) -> dict[str, tuple[int, float]]:
    """Per layer: ``(calls, self seconds)`` summed over the profiled functions."""
    layers: dict[str, tuple[int, float]] = {}
    for (filename, _, _), (_, calls, self_time, _, _) in pstats.Stats(profile).stats.items():
        layer = layer_of(filename, package_root)
        total_calls, total_time = layers.get(layer, (0, 0.0))
        layers[layer] = (total_calls + calls, total_time + self_time)
    return layers
