"""Tests for the two-slit information-bound demonstration.

The geometry is kept numerically gentle by setting the wavelength equal to
the transverse bound at the chosen screen distance; the physics targets
(indistinguishability below the bound, fringe survival above it, square-root
scaling of the crossing point) are scale-free statements.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonoise import (
    CONSTANTS,
    DISTINGUISHABILITY_THRESHOLD,
    DomainError,
    SlitSetup,
    distinguishability,
    fraunhofer_pattern,
    information_blurred_pattern,
    separation_sweep,
    threshold_crossing,
    transverse_uncertainty,
)
from holonoise.slits import MAX_ANGLES

BOUND_1M = transverse_uncertainty(1.0)


def gentle_setup(separation: float, L: float = 1.0, **kw) -> SlitSetup:
    lam = transverse_uncertainty(1.0)
    kw.setdefault("slit_width", lam)
    kw.setdefault("wavelength", lam)
    return SlitSetup(separation=separation, screen_distance=L, **kw)


# -------------------------------------------------------------------- geometry


def test_setup_refuses_a_blur_that_underflows_to_zero():
    with pytest.raises(DomainError, match="blur of 0"):
        SlitSetup(separation=0.0, slit_width=1e-18, screen_distance=1e-300)


def test_pattern_refuses_a_phase_past_the_float_range():
    setup = SlitSetup(separation=1e300, slit_width=CONSTANTS.l_P, screen_distance=1.0)
    with pytest.raises(DomainError, match="no finite, positive power"):
        information_blurred_pattern(setup)


def test_setup_defaults():
    s = SlitSetup(separation=0.0, slit_width=1e-18, screen_distance=1.0)
    assert s.wavelength == CONSTANTS.l_P
    assert s.n_angles == 4096
    assert s.angle_span is not None and s.angle_span > 0.0


def test_setup_validation():
    with pytest.raises(DomainError):
        SlitSetup(separation=-1e-18, slit_width=1e-18, screen_distance=1.0)
    with pytest.raises(DomainError):
        SlitSetup(separation=0.0, slit_width=0.0, screen_distance=1.0)
    with pytest.raises(DomainError):
        SlitSetup(separation=0.0, slit_width=1e-18, screen_distance=0.0)
    with pytest.raises(DomainError):
        SlitSetup(separation=0.0, slit_width=1e-18, screen_distance=1.0, wavelength=-1.0)
    with pytest.raises(DomainError):
        SlitSetup(separation=0.0, slit_width=1e-18, screen_distance=1.0, n_angles=16)
    with pytest.raises(DomainError):
        SlitSetup(separation=0.0, slit_width=1e-18, screen_distance=1.0,
                  n_angles=MAX_ANGLES + 1)
    SlitSetup(separation=0.0, slit_width=1e-18, screen_distance=1.0, n_angles=MAX_ANGLES)
    for n_angles in (100.5, 4096.0, True):
        with pytest.raises(DomainError, match="n_angles must be an integer"):
            SlitSetup(separation=0.0, slit_width=1e-3, screen_distance=1.0, wavelength=1e-3,
                      n_angles=n_angles)
    with pytest.raises(DomainError):
        SlitSetup(
            separation=0.0, slit_width=1e-18, screen_distance=1.0, angle_span=-0.1
        )


def test_angle_grid_symmetric():
    s = gentle_setup(0.0)
    ang = s.angles()
    assert len(ang) == s.n_angles
    assert np.allclose(ang, -ang[::-1])
    assert ang[-1] == pytest.approx(s.angle_span / 2)


# -------------------------------------------------------------- sharp patterns


def test_pattern_unit_sum_and_nonnegative():
    for sep in (0.0, BOUND_1M, 50 * BOUND_1M):
        p = fraunhofer_pattern(gentle_setup(sep))
        assert p.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(p >= 0.0)


def test_zero_separation_is_single_slit_envelope():
    s = gentle_setup(0.0)
    p = fraunhofer_pattern(s)
    sin_t = np.sin(s.angles())
    envelope = np.sinc(s.slit_width * sin_t / s.wavelength) ** 2
    envelope /= envelope.sum()
    assert np.allclose(p, envelope, rtol=1e-12)
    assert np.allclose(p, p[::-1], rtol=1e-10)


def test_first_interference_minimum_at_one_sixth():
    # separation 3*lambda, width lambda: fringe minima where d sin(t) = lambda/2.
    lam = BOUND_1M
    s = SlitSetup(
        separation=3 * lam,
        slit_width=lam,
        screen_distance=1.0,
        wavelength=lam,
        n_angles=8193,
        angle_span=0.7,
    )
    pattern = fraunhofer_pattern(s)
    ang = s.angles()
    positive = ang > 0
    half, ha = pattern[positive], ang[positive]
    i = 1
    while not (half[i] < half[i - 1] and half[i] < half[i + 1]):
        i += 1
    grid_step = float(np.diff(np.sin(ha)).max())
    assert math.sin(ha[i]) == pytest.approx(1.0 / 6.0, abs=2 * grid_step)


@pytest.mark.parametrize("separation", [0.0, BOUND_1M, 3 * BOUND_1M, 50 * BOUND_1M])
def test_sharp_pattern_is_the_undamped_product_bit_for_bit(separation):
    # The sharp pattern is the blurred one at blur 0, whose damping is
    # exactly 1: the bits are those of sinc^2 * cos^2 normalised directly.
    s = gentle_setup(separation)
    sin_t = np.sin(s.angles())
    envelope = np.sinc(s.slit_width * sin_t / s.wavelength) ** 2
    fringes = np.cos(np.pi * s.separation * sin_t / s.wavelength) ** 2
    intensity = envelope * fringes
    assert np.array_equal(fraunhofer_pattern(s), intensity / intensity.sum())


# ------------------------------------------------------------ blurred patterns


def test_blur_zero_recovers_sharp_pattern():
    s = gentle_setup(100 * BOUND_1M)
    sharp = fraunhofer_pattern(s)
    recovered = information_blurred_pattern(s, blur=0.0)
    assert np.max(np.abs(recovered - sharp)) <= 1e-6 * np.max(sharp)


def test_blurred_pattern_unit_sum():
    p = information_blurred_pattern(gentle_setup(BOUND_1M))
    assert p.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(p >= 0.0)


def test_blur_rejects_negative():
    with pytest.raises(DomainError):
        information_blurred_pattern(gentle_setup(0.0), blur=-1e-20)


# --------------------------------------------------------- distinguishability


def test_zero_separation_metric_is_zero():
    # sqrt(1 - r^2) amplifies roundoff near r = 1 to sqrt(eps) ~ 1e-8.
    comparison = distinguishability(gentle_setup(0.0))
    assert comparison.distance_metric == pytest.approx(0.0, abs=1e-6)


def test_sub_bound_separation_indistinguishable():
    comparison = distinguishability(gentle_setup(BOUND_1M / 100))
    assert comparison.distance_metric < 0.01
    assert comparison.bound == pytest.approx(BOUND_1M, rel=1e-15)


def test_super_bound_separation_distinguishable():
    comparison = distinguishability(gentle_setup(100 * BOUND_1M))
    assert comparison.distance_metric > 0.5
    # Fast-fringe asymptote: cos^2 fringes against a smooth envelope give
    # cosine similarity sqrt(2/3), hence distance sqrt(1/3).
    assert comparison.distance_metric == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-6)


def test_sweep_monotone_nondecreasing():
    seps, metrics = separation_sweep(gentle_setup(0.0))
    assert len(seps) == 41
    assert np.all(np.diff(metrics) >= -1e-9)
    assert metrics[0] < 0.01
    assert metrics[-1] > 0.5


def test_sweep_is_distinguishability_per_point_bit_for_bit():
    # The sweep shares one single-slit reference among its points.
    seps, metrics = separation_sweep(gentle_setup(0.0), n_points=9)
    for d, metric in zip(seps, metrics):
        assert metric == distinguishability(gentle_setup(float(d))).distance_metric


def test_sweep_spans_bound():
    seps, _ = separation_sweep(gentle_setup(0.0))
    assert seps[0] == pytest.approx(BOUND_1M / 30, rel=1e-12)
    assert seps[-1] == pytest.approx(BOUND_1M * 30, rel=1e-12)


def test_threshold_crossing_near_bound():
    crossing = threshold_crossing(gentle_setup(0.0))
    assert BOUND_1M / 3 < crossing < 3 * BOUND_1M
    # Frozen from the sweep oracle for this geometry.
    assert crossing / BOUND_1M == pytest.approx(1.1458, rel=1e-3)


def test_crossing_sqrt_scaling_doubling():
    c1 = threshold_crossing(gentle_setup(0.0, L=1.0))
    c2 = threshold_crossing(gentle_setup(0.0, L=2.0))
    assert c2 / c1 == pytest.approx(math.sqrt(2.0), rel=0.2)


def test_crossing_sqrt_scaling_decade():
    c1 = threshold_crossing(gentle_setup(0.0, L=1.0))
    c10 = threshold_crossing(gentle_setup(0.0, L=10.0))
    assert c10 / c1 == pytest.approx(math.sqrt(10.0), rel=0.2)


def test_threshold_crossing_unreachable():
    # A sweep confined far below the bound never crosses.
    setup = gentle_setup(0.0)
    with pytest.raises(DomainError):
        threshold_crossing(setup, threshold=0.99)


def test_default_threshold_value():
    assert DISTINGUISHABILITY_THRESHOLD == 0.1


# ------------------------------------------------------------------ properties


@settings(max_examples=50)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.25, max_value=16.0),
)
def test_property_metric_bounded(log_sep_factor, L):
    sep = 10.0**log_sep_factor * transverse_uncertainty(L)
    lam = transverse_uncertainty(L)
    setup = SlitSetup(
        separation=sep,
        slit_width=lam,
        screen_distance=L,
        wavelength=lam,
        n_angles=1024,
    )
    metric = distinguishability(setup).distance_metric
    assert 0.0 <= metric <= 1.0
