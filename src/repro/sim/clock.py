"""Per-host hardware clocks with offset, drift, and granularity.

Section 2.5 of the paper assumes that the processor clocks of the machines
drift linearly, i.e. for machines ``i`` and ``j``::

    C_j(t) = alpha_ij + beta_ij * C_i(t)

The simulator gives every host a :class:`HardwareClock` of the form
``C(t) = offset + rate * t`` (plus optional read granularity), which makes
the assumption exact and lets the offline clock-synchronization algorithm
of :mod:`repro.analysis.clock_sync` be validated against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeConfigurationError


@dataclass(frozen=True)
class ClockParameters:
    """Static description of a hardware clock.

    Attributes
    ----------
    offset:
        Clock reading at physical time zero, in seconds.
    rate:
        Seconds of clock time per second of physical time.  A perfect clock
        has rate ``1.0``; typical quartz oscillators are within a few tens
        of parts per million.
    granularity:
        Smallest increment the clock can report, in seconds.  ``0`` means
        the clock is continuous (e.g. a cycle counter on a fast CPU).
    """

    offset: float = 0.0
    rate: float = 1.0
    granularity: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise RuntimeConfigurationError(f"clock rate must be positive, got {self.rate}")
        if self.granularity < 0:
            raise RuntimeConfigurationError("clock granularity cannot be negative")


class HardwareClock:
    """A drifting hardware clock readable from simulated software."""

    def __init__(self, parameters: ClockParameters | None = None) -> None:
        self._parameters = parameters or ClockParameters()

    @property
    def parameters(self) -> ClockParameters:
        """The offset/rate/granularity this clock was built with."""
        return self._parameters

    @property
    def rate(self) -> float:
        """Clock seconds per physical second."""
        return self._parameters.rate

    @property
    def offset(self) -> float:
        """Clock reading at physical time zero."""
        return self._parameters.offset

    def read(self, physical_time: float) -> float:
        """Return the clock value at the given physical time.

        A numpy array of times reads elementwise, each value bit-identical
        to its scalar read (the sync phase reads whole columns at once).
        """
        value = self._parameters.offset + self._parameters.rate * physical_time
        granularity = self._parameters.granularity
        if granularity > 0:
            value = (value // granularity) * granularity
        return value

    def to_physical(self, clock_time: float) -> float:
        """Invert the clock: the physical time at which it reads ``clock_time``.

        Granularity is ignored for the inversion; the result is the earliest
        physical instant at which a continuous clock with the same offset and
        rate would show ``clock_time``.  This is only used by tests and by
        ground-truth checks, never by the system under test.
        """
        return (clock_time - self._parameters.offset) / self._parameters.rate

    def relative_to(self, reference: "HardwareClock") -> tuple[float, float]:
        """Return the true ``(alpha, beta)`` of this clock w.r.t. ``reference``.

        These are the quantities the offline clock-synchronization algorithm
        estimates bounds for: ``C_self(t) = alpha + beta * C_ref(t)``.
        """
        beta = self.rate / reference.rate
        alpha = self.offset - beta * reference.offset
        return alpha, beta

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        p = self._parameters
        return f"HardwareClock(offset={p.offset}, rate={p.rate}, granularity={p.granularity})"
