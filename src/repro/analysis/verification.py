"""Conservative verification of fault injections (Section 2.5).

After the global timeline is built, every fault injection is checked to
have occurred in the global state demanded by its fault expression.  The
check is deliberately conservative: using the ``[lower, upper]`` bounds of
each event, the injection is accepted only if its whole uncertainty
interval lies inside a region where the fault expression was *provably*
true.  For a simple conjunction of ``(machine:state)`` atoms this reduces
to the paper's check — the injection must fall after the upper bound of
every state-entry time and before the lower bound of every state-exit
time — and the three-valued evaluation below generalizes it to arbitrary
AND/OR/NOT expressions.

Experiments containing any injection that cannot be proven correct are
discarded and excluded from measure estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.global_timeline import GlobalTimeline
from repro.analysis.intervals import IntervalSet
from repro.core.expression import And, Expression, Not, Or, StateAtom
from repro.core.specs.fault_spec import FaultSpecification
from repro.errors import AnalysisError


@dataclass(frozen=True)
class ExpressionRegions:
    """Where an expression is provably true and where it may be true."""

    certain: IntervalSet
    possible: IntervalSet


def atom_regions(timeline: GlobalTimeline, atom: StateAtom, horizon: float) -> ExpressionRegions:
    """Certainly/possibly-true regions of a single ``(machine:state)`` atom.

    A period of the state is certain from its entry's upper bound to its
    exit's lower bound (when that interval is not empty) and possible
    from its entry's lower bound to its exit's upper bound; an open
    period ends at ``horizon``.
    """
    lower, upper, new_state = timeline.lower, timeline.upper, timeline.new_state
    certain_pairs: list[tuple[float, float]] = []
    possible_pairs: list[tuple[float, float]] = []
    for entry, exit_ in timeline.change_periods(atom.machine):
        if new_state[entry] != atom.state:
            continue
        if exit_ is None:
            certain_end = possible_end = horizon
        else:
            certain_end, possible_end = lower[exit_], upper[exit_]
        certain_start, possible_start = upper[entry], lower[entry]
        if certain_end >= certain_start:
            certain_pairs.append((certain_start, certain_end))
        possible_pairs.append((possible_start, max(possible_start, possible_end)))
    return ExpressionRegions(
        certain=IntervalSet.from_pairs(certain_pairs),
        possible=IntervalSet.from_pairs(possible_pairs),
    )


def expression_regions(
    timeline: GlobalTimeline, expression: Expression, horizon: float
) -> ExpressionRegions:
    """Three-valued evaluation of a fault expression over the global timeline."""
    if isinstance(expression, StateAtom):
        return atom_regions(timeline, expression, horizon)
    if isinstance(expression, Not):
        inner = expression_regions(timeline, expression.operand, horizon)
        return ExpressionRegions(
            certain=inner.possible.complement(0.0, horizon),
            possible=inner.certain.complement(0.0, horizon),
        )
    if isinstance(expression, And):
        left = expression_regions(timeline, expression.left, horizon)
        right = expression_regions(timeline, expression.right, horizon)
        return ExpressionRegions(
            certain=left.certain.intersection(right.certain),
            possible=left.possible.intersection(right.possible),
        )
    if isinstance(expression, Or):
        left = expression_regions(timeline, expression.left, horizon)
        right = expression_regions(timeline, expression.right, horizon)
        return ExpressionRegions(
            certain=left.certain.union(right.certain),
            possible=left.possible.union(right.possible),
        )
    raise AnalysisError(f"unsupported expression node {type(expression).__name__}")


def _same_machine_atom_status(
    timeline: GlobalTimeline, atom: StateAtom, injection: int
) -> bool | None:
    """Exact truth of an atom about the machine the fault was injected into.

    The injection record and the machine's own state-change records were
    stamped by the same hardware clock, so their order is known exactly and
    no global-time uncertainty applies.  Records taken on different hosts
    (a node that restarted elsewhere mid-experiment) cannot be compared this
    way; ``None`` is returned and the caller falls back to the conservative
    interval check.
    """
    host, local_time = timeline.host, timeline.local_time
    injection_host, injected_at = host[injection], local_time[injection]
    # When the injection shares its timestamp with a state change of the
    # same machine, the recorder order guarantees the state change happened
    # first, so the state in force at the injection is the one entered most
    # recently: keep the *last* matching period.
    matched_state: str | None = None
    for entry, exit_ in timeline.change_periods(atom.machine):
        if host[entry] != injection_host:
            continue
        if exit_ is not None and host[exit_] != injection_host:
            continue
        entered = local_time[entry] <= injected_at
        not_exited = exit_ is None or injected_at <= local_time[exit_]
        if entered and not_exited:
            matched_state = timeline.new_state[entry]
    if matched_state is None:
        return None
    return matched_state == atom.state


def _atom_status(
    timeline: GlobalTimeline,
    atom: StateAtom,
    injection: int,
    horizon: float,
    region_cache: dict[StateAtom, ExpressionRegions],
) -> bool | None:
    """Three-valued truth of an atom at the injection instant.

    ``True`` means provably true, ``False`` provably false, ``None``
    unknown (the conservative verdict).
    """
    if atom.machine == timeline.machine[injection]:
        local = _same_machine_atom_status(timeline, atom, injection)
        if local is not None:
            return local
    if atom not in region_cache:
        region_cache[atom] = atom_regions(timeline, atom, horizon)
    regions = region_cache[atom]
    lower, upper = timeline.lower[injection], timeline.upper[injection]
    if regions.certain.contains_interval(lower, upper):
        return True
    overlap = regions.possible.intersection(IntervalSet.from_pairs([(lower, upper)]))
    if overlap.is_empty:
        return False
    return None


def expression_status_at_injection(
    timeline: GlobalTimeline,
    expression: Expression,
    injection: int,
    horizon: float,
    region_cache: dict[StateAtom, ExpressionRegions] | None = None,
) -> bool | None:
    """Three-valued evaluation of a fault expression at an injection.

    ``injection`` is the injection's column position on ``timeline``.
    """
    cache: dict[StateAtom, ExpressionRegions] = region_cache if region_cache is not None else {}
    if isinstance(expression, StateAtom):
        return _atom_status(timeline, expression, injection, horizon, cache)
    if isinstance(expression, Not):
        inner = expression_status_at_injection(timeline, expression.operand, injection, horizon, cache)
        return None if inner is None else not inner
    if isinstance(expression, And):
        left = expression_status_at_injection(timeline, expression.left, injection, horizon, cache)
        right = expression_status_at_injection(timeline, expression.right, injection, horizon, cache)
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if isinstance(expression, Or):
        left = expression_status_at_injection(timeline, expression.left, injection, horizon, cache)
        right = expression_status_at_injection(timeline, expression.right, injection, horizon, cache)
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    raise AnalysisError(f"unsupported expression node {type(expression).__name__}")


@dataclass(frozen=True)
class InjectionVerdict:
    """The verdict on one fault injection."""

    machine: str
    fault: str
    #: The injection's column position on the experiment's global timeline
    #: (``timeline.entry(position)`` is its entry).
    position: int
    correct: bool
    reason: str

    def __bool__(self) -> bool:
        return self.correct


@dataclass
class ExperimentVerification:
    """The verification result for one experiment."""

    verdicts: list[InjectionVerdict] = field(default_factory=list)
    missing_faults: list[tuple[str, str]] = field(default_factory=list)

    @property
    def injections_checked(self) -> int:
        """Number of injections examined."""
        return len(self.verdicts)

    @property
    def correct(self) -> bool:
        """Whether every injection of the experiment was provably correct."""
        return all(verdict.correct for verdict in self.verdicts)

    @property
    def incorrect_verdicts(self) -> list[InjectionVerdict]:
        """The injections that could not be proven correct."""
        return [verdict for verdict in self.verdicts if not verdict.correct]


def verify_experiment(
    timeline: GlobalTimeline,
    fault_specifications: Mapping[str, FaultSpecification],
    require_all_faults: bool = False,
) -> ExperimentVerification:
    """Check every fault injection of an experiment against its fault expression.

    Parameters
    ----------
    timeline:
        The experiment's global timeline.
    fault_specifications:
        The fault specification of every state machine, keyed by nickname.
    require_all_faults:
        When true, faults that were specified but never injected are listed
        in :attr:`ExperimentVerification.missing_faults` (they do not make
        the experiment incorrect — the paper only discards experiments with
        *incorrect* injections — but callers may filter on them).
    """
    verification = ExperimentVerification()
    horizon = timeline.horizon
    atom_cache: dict[StateAtom, ExpressionRegions] = {}
    machines, faults = timeline.machine, timeline.fault

    for position in timeline.injection_positions():
        machine, fault = machines[position], faults[position]
        specification = fault_specifications.get(machine)
        definition = specification.get(fault) if specification is not None else None
        if definition is None:
            correct = False
            reason = (
                f"fault {fault!r} is not in the fault specification of machine {machine!r}"
            )
        else:
            status = expression_status_at_injection(
                timeline, definition.expression, position, horizon, atom_cache
            )
            correct = status is True
            if correct:
                reason = "injection provably occurred in the intended global state"
            elif status is False:
                reason = "injection provably occurred outside the intended global state"
            else:
                reason = "injection cannot be proven to lie inside the intended global state"
        verification.verdicts.append(
            InjectionVerdict(
                machine=machine, fault=fault, position=position, correct=correct, reason=reason
            )
        )

    if require_all_faults:
        injected = {
            (machines[position], faults[position]) for position in timeline.injection_positions()
        }
        for machine, specification in fault_specifications.items():
            for definition in specification:
                if (machine, definition.name) not in injected:
                    verification.missing_faults.append((machine, definition.name))
    return verification
