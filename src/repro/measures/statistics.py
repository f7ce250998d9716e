"""Statistical estimation of measures (Section 4.4).

The campaign measure is characterized through its first four moments.  From
a sample (or a weighted combination of per-study samples) this module
computes the non-central moments, the central moments of orders 2-4 (the
paper's Equations 4.1-4.3), the Pearson skewness and kurtosis coefficients
``beta1 = mu3^2 / mu2^3`` and ``beta2 = mu4 / mu2^2`` (Equations 4.4-4.5),
and percentile points.

The paper obtains percentiles from the Bowman-Shenton rational-fraction
approximation for the Pearson system; the 19-point coefficient table is not
reproduced in the paper, so this implementation substitutes the
Cornish-Fisher expansion, which consumes exactly the same inputs (the first
four moments) and serves the same purpose.  The substitution is recorded
under "Deviations from the paper" in ``docs/architecture.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

from repro.errors import StatisticsError

_NORMAL = NormalDist()


@dataclass(frozen=True)
class MomentSummary:
    """Moment-based characterization of one (possibly combined) sample."""

    count: int
    mean: float
    central_moment_2: float
    central_moment_3: float
    central_moment_4: float

    # -- derived quantities -------------------------------------------------------

    @property
    def variance(self) -> float:
        """The second central moment."""
        return self.central_moment_2

    @property
    def standard_deviation(self) -> float:
        """Square root of the variance."""
        return math.sqrt(max(self.central_moment_2, 0.0))

    @property
    def _degenerate_spread(self) -> bool:
        """Whether the spread is too small for shape coefficients.

        All four shape coefficients share this single guard so they stay
        mutually consistent (``beta1 == gamma1**2``, ``gamma2 == beta2 - 3``)
        even for nearly-degenerate samples, where ``mu2`` can be positive
        while its powers underflow to zero.  ``mu2**2`` is the first power
        to underflow, so guarding on it covers every denominator used.
        """
        return self.central_moment_2**2 <= 0.0

    @property
    def skewness_coefficient(self) -> float:
        """Pearson's ``beta1 = mu3^2 / mu2^3`` (0 for a degenerate sample).

        Computed as ``gamma1**2`` so the ``beta1 == gamma1**2`` identity
        holds exactly.
        """
        return self.skewness**2

    @property
    def kurtosis_coefficient(self) -> float:
        """Pearson's ``beta2 = mu4 / mu2^2`` (0 for a degenerate sample)."""
        if self._degenerate_spread:
            return 0.0
        return self.central_moment_4 / self.central_moment_2**2

    @property
    def skewness(self) -> float:
        """The standardized third moment ``gamma1 = mu3 / mu2^(3/2)``."""
        if self._degenerate_spread:
            return 0.0
        return self.central_moment_3 / self.central_moment_2**1.5

    @property
    def excess_kurtosis(self) -> float:
        """``gamma2 = mu4 / mu2^2 - 3`` (0 for a degenerate sample)."""
        if self._degenerate_spread:
            return 0.0
        return self.kurtosis_coefficient - 3.0

    def to_dict(self) -> dict:
        """The summary as a plain dictionary of primitives.

        Floats pass through untouched (JSON round-trips them bit-exactly),
        so equality of two summaries' dictionaries is equality of the
        summaries — which is how the store tests assert that measures
        computed from archived records are bit-identical to live ones.
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "central_moment_2": self.central_moment_2,
            "central_moment_3": self.central_moment_3,
            "central_moment_4": self.central_moment_4,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MomentSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        return cls(
            count=data["count"],
            mean=data["mean"],
            central_moment_2=data["central_moment_2"],
            central_moment_3=data["central_moment_3"],
            central_moment_4=data["central_moment_4"],
        )

    def percentile(self, probability: float) -> float:
        """Percentile point via the Cornish-Fisher expansion.

        ``probability`` is the cumulative level (e.g. ``0.95``); the result
        is the value below which that fraction of the distribution is
        estimated to lie.
        """
        if not 0.0 < probability < 1.0:
            raise StatisticsError(f"percentile probability must be in (0, 1), got {probability}")
        if self.central_moment_2 <= 0:
            return self.mean
        z = _NORMAL.inv_cdf(probability)
        gamma1 = self.skewness
        gamma2 = self.excess_kurtosis
        w = (
            z
            + (z**2 - 1.0) * gamma1 / 6.0
            + (z**3 - 3.0 * z) * gamma2 / 24.0
            - (2.0 * z**3 - 5.0 * z) * gamma1**2 / 36.0
        )
        return self.mean + self.standard_deviation * w

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """A normal-approximation confidence interval for the mean."""
        if not 0.0 < level < 1.0:
            raise StatisticsError(f"confidence level must be in (0, 1), got {level}")
        if self.count <= 0:
            raise StatisticsError("cannot compute a confidence interval for an empty sample")
        z = _NORMAL.inv_cdf(0.5 + level / 2.0)
        half_width = z * self.standard_deviation / math.sqrt(self.count)
        return self.mean - half_width, self.mean + half_width


def raw_moments(values: Sequence[float]) -> tuple[float, float, float, float]:
    """The first four non-central moments of a sample.

    With :func:`central_from_raw`, the paper's statement of the moment
    algebra — the reference :func:`summarize_sample` is tested against
    near mean zero, where the two agree.
    """
    if not values:
        raise StatisticsError("cannot compute moments of an empty sample")
    n = float(len(values))
    return tuple(sum(value**k for value in values) / n for k in (1, 2, 3, 4))  # type: ignore[return-value]


def central_from_raw(
    m1: float, m2: float, m3: float, m4: float
) -> tuple[float, float, float]:
    """Central moments of orders 2-4 from non-central moments (Eqns. 4.1-4.3)."""
    mu2 = m2 - m1**2
    mu3 = m3 - 3.0 * m2 * m1 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1**2 - 3.0 * m1**4
    return mu2, mu3, mu4


def summarize_sample(values: Sequence[float]) -> MomentSummary:
    """Summarize one sample of final observation function values.

    The central moments are taken about the mean directly (two passes,
    correctly rounded sums) rather than through :func:`central_from_raw`:
    Eqns. 4.1-4.3 subtract powers of the mean from raw moments of the same
    size, which cancels catastrophically once ``|mean|`` dwarfs the spread
    — the normal case for instants and durations (seconds with
    millisecond spread).  Both routes compute the same quantities.
    """
    if not values:
        raise StatisticsError("cannot compute moments of an empty sample")
    n = float(len(values))
    mean = math.fsum(values) / n
    deviations = [value - mean for value in values]
    mu2, mu3, mu4 = (math.fsum(d**k for d in deviations) / n for k in (2, 3, 4))
    return MomentSummary(
        count=len(values),
        mean=mean,
        central_moment_2=mu2,
        central_moment_3=mu3,
        central_moment_4=mu4,
    )


def combine_stratified(
    summaries: Mapping[str, MomentSummary], weights: Mapping[str, float]
) -> MomentSummary:
    """Combine per-study summaries with normalized weights (Section 4.4.2).

    The mean is the weighted sum of per-study means, and each central moment
    of order 2-4 is the weighted sum of the per-study central moments, under
    the paper's assumption that the per-study random variables (and their
    powers) are independent across studies.
    """
    if not summaries:
        raise StatisticsError("cannot combine an empty set of studies")
    missing = set(summaries) - set(weights)
    if missing:
        raise StatisticsError(f"missing weights for studies: {sorted(missing)}")
    total_weight = sum(weights[name] for name in summaries)
    if total_weight <= 0:
        raise StatisticsError("stratified weights must sum to a positive value")
    normalized = {name: weights[name] / total_weight for name in summaries}
    mean = sum(normalized[name] * summary.mean for name, summary in summaries.items())
    mu2 = sum(normalized[name] * summary.central_moment_2 for name, summary in summaries.items())
    mu3 = sum(normalized[name] * summary.central_moment_3 for name, summary in summaries.items())
    mu4 = sum(normalized[name] * summary.central_moment_4 for name, summary in summaries.items())
    count = sum(summary.count for summary in summaries.values())
    return MomentSummary(
        count=count,
        mean=mean,
        central_moment_2=mu2,
        central_moment_3=mu3,
        central_moment_4=mu4,
    )
