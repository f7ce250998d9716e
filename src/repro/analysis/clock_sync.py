"""Offline clock synchronization (Section 2.5).

The analysis phase assumes the processor clocks drift linearly: for a
machine ``i`` and the reference machine ``r``::

    C_i(t) = alpha_ri + beta_ri * C_r(t)

Synchronization messages exchanged between the reference machine and every
other machine before and after each experiment give one-sided constraints
on ``(alpha, beta)``:

* a message ``r -> i`` sent at reference-clock ``s`` and received at
  machine-clock ``c`` implies ``alpha + beta * s <= c`` (the message cannot
  arrive before it was sent);
* a message ``i -> r`` sent at machine-clock ``c`` and received at
  reference-clock ``s`` implies ``alpha + beta * s >= c``.

The feasible region of these half-planes is a convex polygon.  Rather than
exact values, the algorithm reports the extreme values ``[alpha-, alpha+]``
and ``[beta-, beta+]`` over that polygon — intervals that are *guaranteed*
to contain the true offset and drift, unlike confidence intervals.

The solver exploits the special structure of the constraint set instead of
running linear programs.  Every constraint bounds ``alpha`` by a line in
``beta``::

    r -> i messages:   alpha <= receive - send * beta      (upper lines)
    i -> r messages:   alpha >= send - receive * beta      (lower lines)

so the feasible region is exactly ``{(alpha, beta) : L(beta) <= alpha <=
U(beta), beta >= beta_floor}`` where ``U`` is the *minimum* of the upper
lines (a concave piecewise-linear envelope) and ``L`` the *maximum* of the
lower lines (a convex one).  Both envelopes come out of the same classic
monotone-hull sweep, :func:`_min_envelope` (``L`` as the negated minimum of
the negated lower lines), in O(n log n) after sorting by slope; the
envelopes' breakpoints are the polygon's vertices, the betas where ``L``
and ``U`` cross delimit ``[beta-, beta+]``, and the alpha extremes are
envelope values at vertices — everything the four linear programs and the
O(n^3) pairwise vertex enumeration used to produce, in a single exact pass.

The messages themselves live in one columnar :class:`SyncTable` from the
moment the runtime phase records them until this solver reads them; no
:class:`SyncMessageRecord` exists on that path.  An archived experiment
has a few dozen rows, a handful of lines per envelope, so the solver works
on plain floats: it reads each column once with ``.tolist()``, groups the
rows into every machine's constraint lines in one pass, and orders each
family by sorting ``(-slope, intercept, row)`` triples (ties in table
order).  Each envelope is evaluated at its own breakpoints by index and
at the other's in one merged walk — per-call numpy overhead would dwarf
arrays this small.

The historical :mod:`scipy` path is kept as
:func:`estimate_clock_bounds_lp` purely as a cross-check for the test
suite; the hot path no longer imports scipy at all.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ClockSynchronizationError

#: Positivity floor on the drift ``beta``, identical to the bound the
#: linear-programming path places on it: a clock that does not advance
#: (``beta <= 0``) can never be synchronized.
_BETA_FLOOR = 1e-9

#: Relative tolerance for merging near-duplicate polygon vertices produced
#: by three or more (nearly) concurrent constraint lines.
_VERTEX_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SyncMessageRecord:
    """One synchronization message between two hosts.

    ``send_time`` is the sender's local clock at transmission and
    ``receive_time`` the receiver's local clock at reception.
    """

    sender: str
    receiver: str
    send_time: float
    receive_time: float


@dataclass(eq=False, repr=False, slots=True)
class SyncTable(Sequence[SyncMessageRecord]):
    """The synchronization messages of one experiment, column by column.

    The only in-program form of an experiment's messages: the runtime
    phase appends to it, it crosses the worker pipe as four arrays, the
    columnar store writes and reads its columns as they are, and
    :func:`estimate_all_bounds` reads each column once with ``.tolist()``
    and groups the rows into every machine's constraint lines in one pass
    over them.  ``sender`` / ``receiver`` hold integer codes into
    ``hosts`` (which may list names no message uses — a table decoded from
    a store block keeps the block's whole string pool); ``send_time`` /
    ``receive_time`` are ``float64``.  Columns grow as :mod:`array` arrays
    under :meth:`append`; a decoded table's columns are read-only numpy
    views of the block's bytes.

    To everything else it is a sequence of :class:`SyncMessageRecord`:
    ``len``, truthiness, iteration and indexing build records on demand,
    and it compares equal to a list of the same records.
    """

    hosts: list[str | None] = field(default_factory=list)
    sender: Any = field(default_factory=lambda: array("i"))
    receiver: Any = field(default_factory=lambda: array("i"))
    send_time: Any = field(default_factory=lambda: array("d"))
    receive_time: Any = field(default_factory=lambda: array("d"))

    @classmethod
    def of(cls, messages: Iterable[SyncMessageRecord]) -> "SyncTable":
        """``messages`` itself when it already is a table, else its records' table."""
        if isinstance(messages, cls):
            return messages
        table = cls()
        for message in messages:
            table.append(
                message.sender, message.receiver, message.send_time, message.receive_time
            )
        return table

    def append(
        self, sender: str, receiver: str, send_time: float, receive_time: float
    ) -> None:
        """Record one message; hosts get their codes in first-use order."""
        hosts = self.hosts
        if sender not in hosts:
            hosts.append(sender)
        if receiver not in hosts:
            hosts.append(receiver)
        self.sender.append(hosts.index(sender))
        self.receiver.append(hosts.index(receiver))
        self.send_time.append(send_time)
        self.receive_time.append(receive_time)

    def code(self, host: str) -> int:
        """The column code of ``host``, or -1 (matching no row) when it has none."""
        try:
            return self.hosts.index(host)
        except ValueError:
            return -1

    def __len__(self) -> int:
        return len(self.sender)

    def __iter__(self) -> Iterator[SyncMessageRecord]:
        hosts = self.hosts
        # .tolist() turns a whole column into native ints/floats in one C pass.
        for sender, receiver, send_time, receive_time in zip(
            self.sender.tolist(),
            self.receiver.tolist(),
            self.send_time.tolist(),
            self.receive_time.tolist(),
        ):
            yield SyncMessageRecord(hosts[sender], hosts[receiver], send_time, receive_time)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return list(self)[index]
        hosts = self.hosts
        return SyncMessageRecord(
            hosts[self.sender[index]],
            hosts[self.receiver[index]],
            float(self.send_time[index]),
            float(self.receive_time[index]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SyncTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"SyncTable({list(self)!r})"


@dataclass(frozen=True)
class ClockBounds:
    """Guaranteed bounds on the offset and drift of one machine's clock.

    The true ``(alpha, beta)`` relating the machine's clock to the
    reference clock always lies inside ``[alpha_lower, alpha_upper] x
    [beta_lower, beta_upper]``.

    ``vertices`` optionally carries the corners of the feasible convex
    polygon itself.  The offset and drift errors allowed by the constraints
    are strongly anti-correlated, so projecting event times through the
    polygon's vertices gives much tighter — still guaranteed — global-time
    bounds than the rectangular-corner formula; when no vertices are stored
    the rectangle corners are used, which is exactly the paper's
    Equation 2.2.
    """

    alpha_lower: float
    alpha_upper: float
    beta_lower: float
    beta_upper: float
    vertices: tuple[tuple[float, float], ...] = ()

    @classmethod
    def identity(cls) -> "ClockBounds":
        """The bounds of the reference machine relative to itself."""
        return cls(0.0, 0.0, 1.0, 1.0)

    @property
    def alpha_width(self) -> float:
        """Width of the offset interval, in seconds."""
        return self.alpha_upper - self.alpha_lower

    @property
    def beta_width(self) -> float:
        """Width of the drift interval (dimensionless)."""
        return self.beta_upper - self.beta_lower

    @property
    def alpha_midpoint(self) -> float:
        """Midpoint estimate of the offset."""
        return 0.5 * (self.alpha_lower + self.alpha_upper)

    @property
    def beta_midpoint(self) -> float:
        """Midpoint estimate of the drift."""
        return 0.5 * (self.beta_lower + self.beta_upper)

    def contains(self, alpha: float, beta: float) -> bool:
        """Whether a candidate ``(alpha, beta)`` lies inside the bounds."""
        return (
            self.alpha_lower <= alpha <= self.alpha_upper
            and self.beta_lower <= beta <= self.beta_upper
        )

    @property
    def projection_corners(self) -> tuple[tuple[float, float], ...]:
        """The distinct ``(alpha, beta)`` corners used for time projection.

        The polygon vertices when available, the rectangle corners (the
        paper's Equation 2.2) otherwise — one corner for exact bounds such
        as the reference machine's, as repeats add no candidate.
        """
        if self.vertices:
            return self.vertices
        return tuple(
            dict.fromkeys(
                (
                    (self.alpha_lower, self.beta_lower),
                    (self.alpha_lower, self.beta_upper),
                    (self.alpha_upper, self.beta_lower),
                    (self.alpha_upper, self.beta_upper),
                )
            )
        )

    def project_to_reference(self, local_time: float) -> tuple[float, float]:
        """Project a local-clock reading onto the reference clock.

        Returns guaranteed ``(lower, upper)`` bounds on the reference-clock
        time of the event.  ``(local_time - alpha) / beta`` is a
        linear-fractional function of ``(alpha, beta)``, so over a convex
        polygon its extremes occur at vertices; when the feasible-polygon
        vertices are available they are used, otherwise the four corners of
        the bounding rectangle (the paper's Equation 2.2) are evaluated.
        """
        candidates = [(local_time - alpha) / beta for alpha, beta in self.projection_corners]
        return min(candidates), max(candidates)


def select_reference_host(clock_rates: Mapping[str, float]) -> str:
    """Pick the reference machine: the one with the fastest clock.

    The paper uses the fastest machine as the reference because mapping a
    fast clock onto a slower one would lose resolution (Section 5.7).
    """
    if not clock_rates:
        raise ClockSynchronizationError("no hosts to choose a reference from")
    return max(sorted(clock_rates), key=lambda host: clock_rates[host])


# ---------------------------------------------------------------------------
# Exact geometric solver
# ---------------------------------------------------------------------------
#
# A "line" is an (slope, intercept) pair describing ``alpha = slope * beta
# + intercept``.  Upper lines bound alpha from above, lower lines from
# below:
#
#   reference -> machine message:  alpha + beta * send <= receive,
#                                  i.e. the upper line (-send, receive);
#   machine -> reference message:  alpha + beta * receive >= send,
#                                  i.e. the lower line (-receive, send).


def _min_envelope(
    lines: list[tuple[float, float, int]],
) -> tuple[list[tuple[float, float]], list[float], list[int]]:
    """The lower (minimum) envelope of a family of lines.

    Each line comes as a triple ``(-slope, intercept, row)``, ``row`` being
    its position in the caller's table.  Returns the active lines as
    ``(slope, intercept)`` in order of increasing ``beta``, the breakpoints
    where activity changes hands, and each active line's row.  The minimum
    of lines is concave, so the active slope strictly decreases along
    ``beta``: sorting the triples (in place) orders the lines by
    ``(-slope, intercept)`` with ties in row order, only the first
    (smallest intercept) of each equal-slope run can ever be minimal —
    which drops duplicated messages too — and the standard monotone-hull
    sweep runs over what is left, O(n log n) overall.  Re-run on just its
    active lines, the sweep meets each with the same predecessor and so
    returns the same hull and cuts bit for bit.  The maximum envelope of
    lower lines is this same sweep over the negated lines, negated back.
    """
    lines.sort()
    hull: list[tuple[float, float]] = []
    cuts: list[float] = []
    rows: list[int] = []
    previous = None
    for negated_slope, intercept, row in lines:
        if negated_slope == previous:
            continue
        previous = negated_slope
        slope = -negated_slope
        # Pop every line the new one overtakes before its predecessor's
        # breakpoint; the hull never empties that way (a cut needs two lines).
        while hull:
            top_slope, top_intercept = hull[-1]
            crossing = (intercept - top_intercept) / (top_slope - slope)
            if cuts and crossing <= cuts[-1]:
                hull.pop()
                cuts.pop()
                rows.pop()
                continue
            cuts.append(crossing)
            break
        hull.append((slope, intercept))
        rows.append(row)
    return hull, cuts, rows


def _envelope_value(
    hull: Sequence[tuple[float, float]], cuts: Sequence[float], beta: float
) -> float:
    """Evaluate an envelope at ``beta`` in O(log n) via its active line.

    ``cuts[k]`` is where ``hull[k + 1]`` takes over from ``hull[k]``, so the
    active line's index is the count of cuts at or before ``beta``.
    """
    slope, intercept = hull[bisect_right(cuts, beta)]
    return slope * beta + intercept


def _envelope_along(
    hull: Sequence[tuple[float, float]], cuts: Sequence[float], betas: Iterable[float]
) -> list[float]:
    """:func:`_envelope_value` at each of the ascending ``betas``, in one walk of the cuts."""
    values: list[float] = []
    active = 0
    count = len(cuts)
    for beta in betas:
        while active < count and cuts[active] <= beta:
            active += 1
        slope, intercept = hull[active]
        values.append(slope * beta + intercept)
    return values


def _inner_vertices(
    hull: Sequence[tuple[float, float]], cuts: Sequence[float], low: float, high: float
) -> list[tuple[float, float]]:
    """``(value, cut)`` at every breakpoint strictly inside ``(low, high)``.

    Cut ``k`` belongs to ``hull[k + 1]`` — the line :func:`_envelope_value`
    picks there, as the cuts strictly ascend — so no search is needed.
    """
    return [
        (slope * cut + intercept, cut)
        for cut, (slope, intercept) in zip(cuts, islice(hull, 1, None))
        if low < cut < high
    ]


def _dedupe_vertices(
    points: Iterable[tuple[float, float]],
    tolerance: float = _VERTEX_TOLERANCE,
) -> tuple[tuple[float, float], ...]:
    """Merge near-duplicate polygon corners, canonically ordered.

    Three or more nearly concurrent constraint lines intersect in a cloud
    of points that differ only by floating-point noise; keeping them all
    bloats ``ClockBounds.vertices`` and the per-event candidate evaluation
    in ``project_to_reference``.  Points whose coordinates agree within a
    relative tolerance are collapsed onto the first representative.

    The points are visited in ``(beta, alpha)`` order, so the kept ones
    ascend in beta and each point is compared with them backwards.  No
    duplicate pair's beta gap exceeds ``reach`` — the tolerance times the
    largest ``|beta|`` (which sits at one end of the order) or 1 — and the
    gap only grows going back, so the first kept point further than
    ``reach`` away ends the search without changing any verdict.
    """
    ordered = sorted(points, key=itemgetter(1, 0))
    if not ordered:
        return ()
    reach = tolerance * max(1.0, abs(ordered[0][1]), abs(ordered[-1][1]))
    kept: list[tuple[float, float]] = []
    for alpha, beta in ordered:
        duplicate = False
        for kept_alpha, kept_beta in reversed(kept):
            if beta - kept_beta > reach:
                break
            alpha_scale = max(1.0, abs(alpha), abs(kept_alpha))
            beta_scale = max(1.0, abs(beta), abs(kept_beta))
            if (
                abs(alpha - kept_alpha) <= tolerance * alpha_scale
                and abs(beta - kept_beta) <= tolerance * beta_scale
            ):
                duplicate = True
                break
        if not duplicate:
            kept.append((alpha, beta))
    return tuple(kept)


def _unbounded(machine: str) -> ClockSynchronizationError:
    return ClockSynchronizationError(
        f"clock bounds for {machine!r} are unbounded; synchronization messages must "
        "flow in both directions before and after the experiment"
    )


def _solve_lines(
    upper_lines: list[tuple[float, float, int]],
    lower_lines: list[tuple[float, float, int]],
    machine: str,
) -> ClockBounds:
    """Exact bounds and polygon vertices from one machine's constraint lines.

    ``upper_lines`` are its upper lines and ``lower_lines`` its negated
    lower lines, both as :func:`_min_envelope` triples.
    """
    if not upper_lines or not lower_lines:
        raise _unbounded(machine)

    upper_hull, upper_cuts, _ = _min_envelope(upper_lines)
    negated_hull, lower_cuts, _ = _min_envelope(lower_lines)
    lower_hull = [(-slope, -intercept) for slope, intercept in negated_hull]

    # Candidate betas: the positivity floor plus every envelope breakpoint
    # past it.  The gap function D = U - L is linear between consecutive
    # candidates and concave overall, so its sign pattern along beta is
    # (neg)* (non-neg)* (neg)* and evaluating at the candidates finds the
    # feasible interval exactly.
    candidates = sorted(
        {_BETA_FLOOR}
        | {cut for cut in upper_cuts if cut > _BETA_FLOOR}
        | {cut for cut in lower_cuts if cut > _BETA_FLOOR}
    )
    gaps = [
        upper - lower
        for upper, lower in zip(
            _envelope_along(upper_hull, upper_cuts, candidates),
            _envelope_along(lower_hull, lower_cuts, candidates),
        )
    ]
    # Beyond the last candidate both envelopes follow their final line, so
    # the gap's tail slope decides boundedness at beta -> infinity.
    tail_slope = upper_hull[-1][0] - lower_hull[-1][0]

    feasible = [index for index, gap in enumerate(gaps) if gap >= 0.0]
    if not feasible:
        if tail_slope > 0.0:
            raise _unbounded(machine)
        raise ClockSynchronizationError(
            f"clock-bound estimation for {machine!r} failed: "
            "the synchronization constraints are mutually inconsistent (infeasible)"
        )

    first, last = feasible[0], feasible[-1]
    if first == 0:
        beta_lower = candidates[0]
    else:
        # Crossing from infeasible to feasible inside a linear segment.
        left, right = candidates[first - 1], candidates[first]
        gap_left, gap_right = gaps[first - 1], gaps[first]
        beta_lower = left + (right - left) * (-gap_left) / (gap_right - gap_left)
    if last == len(candidates) - 1:
        if tail_slope >= 0.0:
            raise _unbounded(machine)
        beta_upper = candidates[last] + gaps[last] / (-tail_slope)
    else:
        left, right = candidates[last], candidates[last + 1]
        gap_left, gap_right = gaps[last], gaps[last + 1]
        beta_upper = left + (right - left) * gap_left / (gap_left - gap_right)

    # Alpha extremes: over the feasible beta interval the largest alpha is
    # the maximum of the concave envelope U (attained at an envelope
    # breakpoint or an interval endpoint) and the smallest is the minimum
    # of the convex envelope L.
    upper_ends = [
        _envelope_value(upper_hull, upper_cuts, beta_lower),
        _envelope_value(upper_hull, upper_cuts, beta_upper),
    ]
    lower_ends = [
        _envelope_value(lower_hull, lower_cuts, beta_lower),
        _envelope_value(lower_hull, lower_cuts, beta_upper),
    ]
    upper_inner = _inner_vertices(upper_hull, upper_cuts, beta_lower, beta_upper)
    lower_inner = _inner_vertices(lower_hull, lower_cuts, beta_lower, beta_upper)
    alpha_upper = max(upper_ends + [value for value, _ in upper_inner])
    alpha_lower = min(lower_ends + [value for value, _ in lower_inner])

    if alpha_upper < alpha_lower or beta_upper < beta_lower:
        raise ClockSynchronizationError(
            f"inconsistent clock bounds for {machine!r}: "
            f"alpha [{alpha_lower}, {alpha_upper}], beta [{beta_lower}, {beta_upper}]"
        )

    # Polygon vertices: the boundary points at the interval ends (where the
    # envelopes cross — or, when the positivity floor clips the polygon,
    # both envelope values) plus every envelope breakpoint strictly inside.
    corners = [
        (upper_ends[0], beta_lower),
        (lower_ends[0], beta_lower),
        (upper_ends[1], beta_upper),
        (lower_ends[1], beta_upper),
        *upper_inner,
        *lower_inner,
    ]
    return ClockBounds(
        alpha_lower=alpha_lower,
        alpha_upper=alpha_upper,
        beta_lower=beta_lower,
        beta_upper=beta_upper,
        vertices=_dedupe_vertices(corners),
    )


def _constraint_lines(
    table: SyncTable, reference: str
) -> tuple[dict[int, list[tuple[float, float, int]]], dict[int, list[tuple[float, float, int]]]]:
    """Every machine's upper and negated lower lines, keyed by host code.

    One pass over the table's columns, each read once with ``.tolist()``.
    A reference -> machine row is the upper line ``(-send, receive)`` of
    the receiver and a machine -> reference row the lower line
    ``(-receive, send)`` of the sender, negated to ``(receive, -send)``;
    both are kept as :func:`_min_envelope` triples.  Rows between other
    hosts constrain nothing, and the reference's own rows (keyed by its
    code) are never read.
    """
    reference_code = table.code(reference)
    upper: dict[int, list[tuple[float, float, int]]] = {}
    lower: dict[int, list[tuple[float, float, int]]] = {}
    rows = zip(
        table.sender.tolist(),
        table.receiver.tolist(),
        table.send_time.tolist(),
        table.receive_time.tolist(),
    )
    for row, (sender, receiver, send, receive) in enumerate(rows):
        if sender == reference_code:
            upper.setdefault(receiver, []).append((send, receive, row))
        elif receiver == reference_code:
            lower.setdefault(sender, []).append((-receive, -send, row))
    return upper, lower


def estimate_clock_bounds(
    messages: Iterable[SyncMessageRecord], machine: str, reference: str
) -> ClockBounds:
    """Estimate offset/drift bounds for ``machine`` relative to ``reference``."""
    return estimate_all_bounds(messages, (machine,), reference)[machine]


def estimate_all_bounds(
    messages: Iterable[SyncMessageRecord],
    machines: Iterable[str],
    reference: str,
) -> dict[str, ClockBounds]:
    """Estimate bounds for every machine in ``machines`` (reference included).

    ``messages`` is a :class:`SyncTable` (any other iterable of records is
    turned into one first).  A machine's constraint lines are the rows whose
    ``(sender, receiver)`` codes are ``(reference, machine)`` or the reverse;
    messages between other pairs of hosts, or from the reference to itself,
    constrain nothing.
    """
    table = SyncTable.of(messages)
    upper, lower = _constraint_lines(table, reference)
    bounds: dict[str, ClockBounds] = {}
    for machine in machines:
        if machine == reference:
            bounds[machine] = ClockBounds.identity()
            continue
        code = table.code(machine)
        upper_lines, lower_lines = upper.get(code, []), lower.get(code, [])
        if not upper_lines and not lower_lines:
            raise ClockSynchronizationError(
                f"no synchronization messages between {machine!r} and reference {reference!r}"
            )
        bounds[machine] = _solve_lines(upper_lines, lower_lines, machine)
    return bounds


def envelope_rows(
    messages: Iterable[SyncMessageRecord],
    machines: Iterable[str],
    reference: str,
) -> SyncTable:
    """The messages on some machine's upper or lower envelope, in table order.

    :func:`estimate_all_bounds` reads a machine's messages only through the
    hulls and cuts of its two envelopes, which :func:`_min_envelope`
    reproduces bit for bit from their own lines.  So for the same
    ``machines`` and ``reference`` the kept table gives the whole table's
    bounds and vertices (or its very error), and keeping is idempotent.
    Of duplicate or equal-slope lines the first in table order is kept;
    the host pool is kept whole, so every code keeps its meaning.
    """
    table = SyncTable.of(messages)
    upper, lower = _constraint_lines(table, reference)
    kept: set[int] = set()
    for machine in machines:
        if machine == reference:
            continue
        code = table.code(machine)
        for lines in (upper.get(code), lower.get(code)):
            if lines:
                kept.update(_min_envelope(lines)[2])
    rows = np.array(sorted(kept), dtype=np.intp)
    return SyncTable(
        list(table.hosts),
        *(
            np.asarray(column)[rows]
            for column in (table.sender, table.receiver, table.send_time, table.receive_time)
        ),
    )


# ---------------------------------------------------------------------------
# Linear-programming cross-check (test-only path)
# ---------------------------------------------------------------------------
#
# The original implementation solved four linear programs per machine and
# enumerated polygon vertices from all constraint pairs.  It is retained so
# the test suite can cross-check the geometric solver against an
# independent method; scipy is imported lazily so the hot path above never
# needs it.


def _constraints_for(
    messages: Sequence[SyncMessageRecord], machine: str, reference: str
) -> tuple[np.ndarray, np.ndarray]:
    rows: list[list[float]] = []
    bounds: list[float] = []
    for message in messages:
        if message.sender == reference and message.receiver == machine:
            # alpha + beta * send <= receive
            rows.append([1.0, message.send_time])
            bounds.append(message.receive_time)
        elif message.sender == machine and message.receiver == reference:
            # alpha + beta * receive >= send  <=>  -alpha - beta * receive <= -send
            rows.append([-1.0, -message.receive_time])
            bounds.append(-message.send_time)
    if not rows:
        raise ClockSynchronizationError(
            f"no synchronization messages between {machine!r} and reference {reference!r}"
        )
    return np.asarray(rows, dtype=float), np.asarray(bounds, dtype=float)


def _optimize(
    objective: Sequence[float],
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    machine: str,
) -> float:
    from scipy.optimize import linprog

    result = linprog(
        c=list(objective),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None), (_BETA_FLOOR, None)],
        method="highs",
        # Tighten HiGHS to its floor (1e-10; the ~1e-7 defaults lose ~1e-8
        # of optimum on near-parallel constraints): this path exists to
        # cross-check the exact geometric solver at 1e-9 precision.
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if result.status == 3:
        raise ClockSynchronizationError(
            f"clock bounds for {machine!r} are unbounded; synchronization messages must "
            "flow in both directions before and after the experiment"
        )
    if not result.success:
        raise ClockSynchronizationError(
            f"clock-bound estimation for {machine!r} failed: {result.message}"
        )
    return float(result.fun)


def _feasible_vertices(a_ub: np.ndarray, b_ub: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Vertices of the feasible polygon in the (alpha, beta) plane.

    The polygon is ``{x : A x <= b}`` intersected with the drift
    positivity floor ``beta >= _BETA_FLOOR`` (the same bound the linear
    programs place on beta, appended here as an extra constraint row so
    floor-clipped polygons get their floor corners too).  Every pair of
    constraint boundary lines is intersected and the points satisfying
    all constraints (within a small relative tolerance) are kept;
    near-duplicate corners produced by three or more nearly concurrent
    lines are merged.  The polygon is known to be bounded because the
    caller has already run the four bounding linear programs successfully.
    """
    a_ub = np.vstack([a_ub, [0.0, -1.0]])
    b_ub = np.append(b_ub, -_BETA_FLOOR)
    count = a_ub.shape[0]
    vertices: list[tuple[float, float]] = []
    tolerance = 1e-9
    scale = np.maximum(1.0, np.abs(b_ub))
    for i in range(count):
        for j in range(i + 1, count):
            matrix = np.array([a_ub[i], a_ub[j]])
            rhs = np.array([b_ub[i], b_ub[j]])
            determinant = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
            if abs(determinant) < 1e-15:
                continue
            point = np.linalg.solve(matrix, rhs)
            if (
                np.all(a_ub @ point <= b_ub + tolerance * scale)
                and point[1] >= _BETA_FLOOR * (1.0 - 1e-6)
            ):
                vertices.append((float(point[0]), float(point[1])))
    return _dedupe_vertices(vertices)


def estimate_clock_bounds_lp(
    messages: Iterable[SyncMessageRecord], machine: str, reference: str
) -> ClockBounds:
    """The historical scipy linear-programming estimator (cross-check only).

    Produces the same :class:`ClockBounds` as :func:`estimate_clock_bounds`
    (extremes agree to LP solver precision, vertex sets are identical after
    dedup) by solving four linear programs and enumerating all constraint
    pairs.  Kept exclusively so tests and benchmarks can compare the exact
    geometric solver against an independent implementation.
    """
    if machine == reference:
        return ClockBounds.identity()
    message_list = list(messages)
    a_ub, b_ub = _constraints_for(message_list, machine, reference)
    alpha_lower = _optimize([1.0, 0.0], a_ub, b_ub, machine)
    alpha_upper = -_optimize([-1.0, 0.0], a_ub, b_ub, machine)
    beta_lower = _optimize([0.0, 1.0], a_ub, b_ub, machine)
    beta_upper = -_optimize([0.0, -1.0], a_ub, b_ub, machine)
    if alpha_upper < alpha_lower or beta_upper < beta_lower:
        raise ClockSynchronizationError(
            f"inconsistent clock bounds for {machine!r}: "
            f"alpha [{alpha_lower}, {alpha_upper}], beta [{beta_lower}, {beta_upper}]"
        )
    return ClockBounds(
        alpha_lower=alpha_lower,
        alpha_upper=alpha_upper,
        beta_lower=beta_lower,
        beta_upper=beta_upper,
        vertices=_feasible_vertices(a_ub, b_ub),
    )
