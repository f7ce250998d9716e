"""Property-based tests for :mod:`repro.measures.statistics`.

The properties run twice: against a deterministic table of seeded random
samples (always, so CI needs no third-party packages), and — when
``hypothesis`` is installed — against hypothesis-generated samples for
broader coverage.  Both paths share the same check functions.

Checked properties:

* moment identities: ``variance == mu2``, ``stdev**2 == variance``,
  ``beta1 == gamma1**2``, ``beta2 == gamma2 + 3``, the clamped moments are
  non-negative, and Pearson's inequality ``beta2 >= beta1 + 1`` holds;
* ``combine_stratified`` of equal-weight strata that each hold the same
  sample agrees with ``summarize_sample`` of the pooled values (the case
  where the paper's independent-strata combination rule and direct pooling
  provably coincide), and is invariant under rescaling the equal weights;
* percentiles are monotone in the probability level (within the
  moderate-skew envelope where the Cornish-Fisher expansion is monotone);
* the summary and its percentiles are equivariant under the affine map
  ``x -> a*x + b`` with ``a > 0``;
* the shape coefficients survive a *large* shift: ``beta2`` and ``gamma1``
  of ``x + b`` agree with Eqns. 4.1-4.3 applied to ``x`` itself (near mean
  zero, where the raw-moment route is exact enough to be the reference)
  for ``|b| / sigma`` up to 1e6 — the regime of instants and durations,
  seconds with sub-millisecond spread.

``FOUND_SAMPLES`` holds every example hypothesis has falsified a property
with; the seeded table includes them, so each fix is pinned without
hypothesis' help (the rule stated in the root ``conftest.py``).
"""

from __future__ import annotations

import math
import random

from repro.measures.statistics import (
    central_from_raw,
    combine_stratified,
    raw_moments,
    summarize_sample,
)

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

#: Probability grid for the monotonicity property (0.05 .. 0.95).
PROBABILITY_GRID = [level / 20.0 for level in range(1, 20)]

#: Cornish-Fisher monotonicity envelope: |gamma1| and |gamma2| bounds under
#: which the expansion's derivative stays positive on the grid above.
SKEW_ENVELOPE = 0.8
KURTOSIS_ENVELOPE = 1.0


#: Hypothesis finds, copied here before their fix landed.
FOUND_SAMPLES = [
    # A two-point sample has beta2 == 1 exactly; central moments derived
    # from raw ones gave 0.99998885 (mean -2.18, spread 0.005), breaking
    # Pearson's beta2 >= beta1 + 1.
    [-2.1796875, -2.1888463489127394],
]

#: The largest |shift| / sigma the shape coefficients are held to 1e-6 at.
MAX_SHIFT_RATIO = 1e6


def shifted_samples() -> list[tuple[list[float], float]]:
    """Seeded ``(sample, shift)`` pairs: sigma 1e-4..1, |shift| 1e1..1e6.

    Samples are centred near zero (Gaussian) or near one sigma
    (exponential, for a non-zero third moment); pairs whose ratio exceeds
    ``MAX_SHIFT_RATIO`` are left out, because there the shifted doubles
    themselves no longer resolve the spread.
    """
    rng = random.Random(0x5EED)
    pairs: list[tuple[list[float], float]] = []
    for sigma_exponent in range(-4, 1):
        sigma = 10.0**sigma_exponent
        for shift_exponent in range(1, 7):
            shift = 10.0**shift_exponent
            if shift / sigma > MAX_SHIFT_RATIO:
                continue
            size = rng.randint(20, 200)
            if len(pairs) % 2:
                values = [rng.expovariate(1.0 / sigma) for _ in range(size)]
            else:
                values = [rng.gauss(0.0, sigma) for _ in range(size)]
            pairs.append((values, shift if rng.random() < 0.5 else -shift))
    return pairs


def seeded_samples(count: int = 48, max_size: int = 24) -> list[list[float]]:
    """A deterministic table of samples of several distribution shapes.

    Every hypothesis find and every large-shift sample rides along, so all
    properties below are held on them too.
    """
    rng = random.Random(0xC0FFEE)
    samples = [list(values) for values in FOUND_SAMPLES]
    samples += [[value + shift for value in values] for values, shift in shifted_samples()]
    for index in range(count):
        size = rng.randint(2, max_size)
        shape = index % 4
        if shape == 0:
            values = [rng.uniform(-5.0, 5.0) for _ in range(size)]
        elif shape == 1:
            values = [rng.gauss(1.0, 2.0) for _ in range(size)]
        elif shape == 2:
            values = [rng.expovariate(0.8) for _ in range(size)]
        else:
            values = [float(rng.randint(0, 1)) for _ in range(size)]
        samples.append(values)
    return samples


# ---------------------------------------------------------------------------
# Shared check functions
# ---------------------------------------------------------------------------


def check_moment_identities(values: list[float]) -> None:
    summary = summarize_sample(values)
    assert summary.count == len(values)
    assert summary.central_moment_2 >= 0.0
    assert summary.central_moment_4 >= 0.0
    assert summary.variance == summary.central_moment_2
    assert math.isclose(
        summary.standard_deviation**2, summary.variance, rel_tol=1e-9, abs_tol=1e-12
    )
    if summary.central_moment_2**2 > 0.0:
        assert summary.excess_kurtosis == summary.kurtosis_coefficient - 3.0
    else:
        # Degenerate (or underflowing) spread: both coefficients are defined
        # away to zero.
        assert summary.excess_kurtosis == 0.0
        assert summary.kurtosis_coefficient == 0.0
        assert summary.skewness_coefficient == 0.0
    if summary.central_moment_2 > 1e-9:
        assert math.isclose(
            summary.skewness_coefficient,
            summary.skewness**2,
            rel_tol=1e-9,
            abs_tol=1e-12,
        )
        # Pearson's inequality beta2 >= beta1 + 1 holds for every sample.
        assert summary.kurtosis_coefficient + 1e-6 >= summary.skewness_coefficient + 1.0


def check_equal_weight_pooling(values: list[float], strata: int, weight: float) -> None:
    """Equal-weight identical strata == summarize_sample of the pooled values."""
    summaries = {f"stratum-{index}": summarize_sample(values) for index in range(strata)}
    weights = {f"stratum-{index}": weight for index in range(strata)}
    combined = combine_stratified(summaries, weights)
    pooled = summarize_sample(list(values) * strata)
    assert combined.count == pooled.count == strata * len(values)
    assert math.isclose(combined.mean, pooled.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(
        combined.central_moment_2, pooled.central_moment_2, rel_tol=1e-9, abs_tol=1e-8
    )
    assert math.isclose(
        combined.central_moment_3, pooled.central_moment_3, rel_tol=1e-9, abs_tol=1e-8
    )
    assert math.isclose(
        combined.central_moment_4, pooled.central_moment_4, rel_tol=1e-9, abs_tol=1e-8
    )


def in_monotonicity_envelope(values: list[float]) -> bool:
    summary = summarize_sample(values)
    return (
        summary.central_moment_2 > 1e-9
        and abs(summary.skewness) <= SKEW_ENVELOPE
        and abs(summary.excess_kurtosis) <= KURTOSIS_ENVELOPE
    )


def check_percentile_monotone(values: list[float]) -> bool:
    """Percentiles are non-decreasing in the probability level.

    Returns whether the sample was inside the envelope (callers assert the
    property was actually exercised often enough).
    """
    if not in_monotonicity_envelope(values):
        return False
    summary = summarize_sample(values)
    percentiles = [summary.percentile(level) for level in PROBABILITY_GRID]
    for lower, upper in zip(percentiles, percentiles[1:]):
        assert upper >= lower - 1e-9 * (1.0 + abs(lower)), (
            f"percentiles not monotone: {percentiles}"
        )
    return True


def check_affine_equivariance(values: list[float], scale: float, shift: float) -> None:
    """summarize/percentile commute with ``x -> scale * x + shift`` (scale > 0)."""
    base = summarize_sample(values)
    mapped = summarize_sample([scale * value + shift for value in values])
    assert math.isclose(mapped.mean, scale * base.mean + shift, rel_tol=1e-7, abs_tol=1e-7)
    assert math.isclose(
        mapped.variance, scale**2 * base.variance, rel_tol=1e-6, abs_tol=1e-7
    )
    if base.central_moment_2 > 1e-3:
        for level in (0.1, 0.5, 0.9):
            assert math.isclose(
                mapped.percentile(level),
                scale * base.percentile(level) + shift,
                rel_tol=1e-5,
                abs_tol=1e-5,
            )


def check_large_shift_equivariance(values: list[float], shift: float) -> None:
    """Shape coefficients of ``x + shift`` equal the Eqn. 4.1-4.3 ones of ``x``."""
    mu2, mu3, mu4 = central_from_raw(*raw_moments(values))
    shifted = summarize_sample([value + shift for value in values])
    assert math.isclose(shifted.mean, math.fsum(values) / len(values) + shift, rel_tol=1e-12)
    assert math.isclose(shifted.variance, mu2, rel_tol=1e-6)
    assert math.isclose(shifted.kurtosis_coefficient, mu4 / mu2**2, rel_tol=1e-6)
    assert math.isclose(shifted.skewness, mu3 / mu2**1.5, rel_tol=1e-6, abs_tol=1e-7)


# ---------------------------------------------------------------------------
# Deterministic seeded-random path (always runs)
# ---------------------------------------------------------------------------


class TestSeededProperties:
    def test_moment_identities(self):
        for values in seeded_samples():
            check_moment_identities(values)

    def test_equal_weight_pooling(self):
        for index, values in enumerate(seeded_samples(count=24)):
            check_equal_weight_pooling(values, strata=2 + index % 3, weight=1.0)
            check_equal_weight_pooling(values, strata=2, weight=2.5)

    def test_percentiles_monotone(self):
        exercised = sum(check_percentile_monotone(values) for values in seeded_samples())
        # The property must actually fire, not be vacuously skipped.
        assert exercised >= 10

    def test_affine_equivariance(self):
        rng = random.Random(0xBEEF)
        for values in seeded_samples(count=24):
            scale = rng.uniform(0.1, 4.0)
            shift = rng.uniform(-5.0, 5.0)
            check_affine_equivariance(values, scale, shift)

    def test_large_shift_equivariance(self):
        pairs = shifted_samples()
        assert max(abs(shift) for _, shift in pairs) == 1e6
        for values, shift in pairs:
            check_large_shift_equivariance(values, shift)

    def test_degenerate_sample_percentile_is_mean(self):
        summary = summarize_sample([3.25] * 7)
        assert summary.variance == 0.0
        for level in PROBABILITY_GRID:
            assert summary.percentile(level) == summary.mean


# ---------------------------------------------------------------------------
# Hypothesis path (runs when hypothesis is installed)
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:
    finite_values = st.lists(
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=30,
    )

    class TestHypothesisProperties:
        @given(values=finite_values)
        @settings(max_examples=80, deadline=None)
        def test_moment_identities(self, values):
            check_moment_identities(values)

        @given(values=finite_values, strata=st.integers(min_value=2, max_value=5))
        @settings(max_examples=60, deadline=None)
        def test_equal_weight_pooling(self, values, strata):
            check_equal_weight_pooling(values, strata=strata, weight=1.0)

        @given(values=finite_values)
        @settings(max_examples=80, deadline=None)
        def test_percentiles_monotone(self, values):
            check_percentile_monotone(values)

        @given(
            values=finite_values,
            scale=st.floats(min_value=0.1, max_value=4.0),
            shift=st.floats(min_value=-5.0, max_value=5.0),
        )
        @settings(max_examples=60, deadline=None)
        def test_affine_equivariance(self, values, scale, shift):
            check_affine_equivariance(values, scale, shift)

        @given(
            values=finite_values,
            ratio=st.floats(min_value=10.0, max_value=MAX_SHIFT_RATIO),
            sign=st.sampled_from((-1.0, 1.0)),
        )
        @settings(max_examples=80, deadline=None)
        def test_large_shift_equivariance(self, values, ratio, sign):
            centred = summarize_sample(values)
            values = [value - centred.mean for value in values]
            assume(centred.central_moment_2 > 1e-6)
            check_large_shift_equivariance(values, sign * ratio * centred.standard_deviation)
