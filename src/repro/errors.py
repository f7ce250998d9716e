"""Exception hierarchy for the Loki reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to distinguish specification problems from runtime or
analysis problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SpecificationError(ReproError):
    """A user-provided specification file or object is malformed.

    Raised by the parsers for state-machine specifications, fault
    specifications, node files, daemon files, and study files, as well as by
    the in-memory builders when a specification is inconsistent (for example
    a transition that targets a state missing from the global state list).
    """


class ExpressionError(SpecificationError):
    """A Boolean fault expression or predicate expression is malformed."""


class RuntimeConfigurationError(ReproError):
    """The runtime phase was configured inconsistently.

    Examples: a node references a host that is not part of the machines
    file, two state machines share a nickname, or a design choice that does
    not support dynamic node entry is asked to start a node mid-experiment.
    """


class UnknownScenarioError(ReproError):
    """A scenario name was not found in the scenario registry.

    Raised by :meth:`repro.scenarios.ScenarioRegistry.get`; the message
    lists the known scenario names so a typo is immediately diagnosable.
    """


class RuntimePhaseError(ReproError):
    """An unrecoverable error occurred while executing an experiment."""


class UnknownStateMachineError(RuntimePhaseError):
    """A notification or fault expression referenced an unknown machine."""


class TimelineFormatError(ReproError):
    """A local timeline file could not be parsed."""


class AnalysisError(ReproError):
    """The analysis phase could not complete."""


class ClockSynchronizationError(AnalysisError):
    """Offline clock synchronization failed.

    Raised when there are not enough synchronization messages between a
    machine and the reference machine to bound the clock offset and drift,
    or when the constraint system is infeasible (which indicates corrupted
    timestamps rather than a merely wide bound).
    """


class StoreError(ReproError):
    """A campaign store operation failed.

    Covers structural problems with a campaign directory (missing or
    unreadable manifest, malformed record files) and misuse of store-loaded
    results (for example trying to re-run the simulator from a
    reconstructed study configuration that has no application factories).
    """


class StoreIntegrityError(StoreError):
    """A campaign store's contents do not match what the caller expects.

    Raised when the manifest of an existing campaign directory disagrees
    with the campaign being attached (different campaign name, or a study
    whose configuration fingerprint changed since the records were
    written), or when a strict load encounters corrupt record lines.  A
    fingerprint mismatch means stored experiments were produced by a
    *different* configuration and silently mixing them into a resumed run
    would poison the campaign's measures.
    """


class ProtocolError(ReproError):
    """A :mod:`repro.dist.protocol` frame was malformed, oversized or truncated."""


class ExecutionInterrupted(ReproError):
    """A campaign's execution was abandoned before every experiment ran.

    Raised by the parallel backend when worker processes die faster than
    the configured retry budget can absorb.  ``pending`` lists the
    ``(study_name, experiment_index)`` pairs that had not completed, so the
    failure names exactly what was lost; when a campaign store was
    attached, everything that *did* complete is already on disk and
    re-running with the same store resumes instead of restarting.
    """

    def __init__(
        self, message: str, pending: list[tuple[str, int]] | None = None
    ) -> None:
        super().__init__(message)
        self.pending = list(pending or [])


class NoWorkersError(ExecutionInterrupted):
    """Not a single worker process could be started.

    The parallel backend catches this and degrades to a serial in-process
    run (with a warning) — zero completions have happened when it is
    raised, so the fallback is safe.
    """


class MeasureError(ReproError):
    """A measure specification is invalid or cannot be evaluated."""


class ObservationFunctionError(MeasureError):
    """An observation function was called with invalid arguments."""


class StatisticsError(MeasureError):
    """A statistical estimator could not be computed (e.g. empty sample)."""
