"""Tests for the baseline noise model.

Each numeric target was frozen from an independent arithmetic oracle
(plain-float evaluation of the closed forms) before the module was
written; the tests assert agreement to near machine precision, plus the
coarser published roundings where those are the citable anchor.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from holonoise import (
    CONSTANTS,
    DomainError,
    HolographicModel,
    HUBBLE_RADIUS,
    SECONDS_PER_YEAR,
    angular_uncertainty,
    angular_variance,
    autocorrelation,
    drift_speed,
    exact_rms,
    info_budget,
    psd_model,
    radial_resolution,
    transverse_uncertainty,
)

# Frozen oracle values (see module docstring).
SIGMA2_40 = 1.823748497714435e-34
TAU_C_40 = 2.6685127615852164e-7
PSD0_40 = 9.733392280145674e-41
TRANSVERSE_1 = 4.0202674338015744e-18
TRANSVERSE_40 = 2.542640378762636e-17
ANGULAR_40 = 6.356600946906589e-19
EXACT_RMS_1 = 2.135268424410872e-18
EXACT_RMS_40 = 1.3504623273954869e-17
ANGVAR_TAUC_40 = 2.0203187799106875e-37
DRIFT_40 = 5.060730257078672e-11
PIXEL_1 = 1.0077316021145242e-17
PIXEL_HUBBLE = 1.1489908078267628e-4

# Positive baselines spanning lab to cosmological scales.
baselines = st.floats(min_value=1e-3, max_value=1e27)


@pytest.fixture(scope="module")
def model40() -> HolographicModel:
    return HolographicModel.from_baseline(40.0)


# ----------------------------------------------------------------- model type


def test_from_baseline_fields(model40):
    assert model40.L == 40.0
    assert model40.sigma2 == pytest.approx(SIGMA2_40, rel=1e-15)
    assert model40.tau_c == pytest.approx(TAU_C_40, rel=1e-15)


def test_from_baseline_rejects_bad_lengths():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            HolographicModel.from_baseline(bad)


def test_from_baseline_rejects_out_of_range_lengths():
    # 2L overflows to inf above ~9e307; 2L/c underflows to 0 near 1e-320.
    for bad in (1e308, 1e-320):
        with pytest.raises(DomainError, match="arm length"):
            HolographicModel.from_baseline(bad)


# -------------------------------------------------------- resolution formulas


def test_transverse_uncertainty_one_meter():
    assert transverse_uncertainty(1.0) == pytest.approx(TRANSVERSE_1, rel=1e-15)
    # Two-significant-figure published rounding.
    assert transverse_uncertainty(1.0) == pytest.approx(4.02e-18, rel=1e-3)


def test_transverse_uncertainty_forty_meters():
    assert transverse_uncertainty(40.0) == pytest.approx(TRANSVERSE_40, rel=1e-15)


def test_transverse_uncertainty_planck_fixed_point():
    lp = CONSTANTS.l_P
    assert transverse_uncertainty(lp) == pytest.approx(lp, rel=1e-15)


def test_angular_uncertainty_forty_meters():
    assert angular_uncertainty(40.0) == pytest.approx(ANGULAR_40, rel=1e-15)
    assert angular_uncertainty(40.0) == pytest.approx(6.4e-19, rel=0.01)


def test_angular_uncertainty_planck_fixed_point():
    assert angular_uncertainty(CONSTANTS.l_P) == pytest.approx(1.0, rel=1e-15)


def test_angular_uncertainty_inverse_sqrt_scaling():
    assert angular_uncertainty(1.0) / angular_uncertainty(100.0) == pytest.approx(
        10.0, rel=1e-12
    )


def test_exact_rms_one_meter_published():
    assert exact_rms(1.0) == pytest.approx(EXACT_RMS_1, rel=1e-15)
    assert exact_rms(1.0) == pytest.approx(2.135e-18, rel=1e-3)


def test_exact_rms_sqrt_scaling():
    assert exact_rms(4.0) == pytest.approx(2.0 * exact_rms(1.0), rel=1e-14)


def test_exact_rms_forty_meters():
    assert exact_rms(40.0) == pytest.approx(EXACT_RMS_40, rel=1e-15)


def test_resolution_rejects_bad_lengths():
    for func in (transverse_uncertainty, angular_uncertainty, exact_rms):
        for bad in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                func(bad)


# ----------------------------------------------------------- angular variance


def test_angular_variance_planck_time():
    assert angular_variance(CONSTANTS.t_P) == pytest.approx(1.0, rel=1e-15)


def test_angular_variance_one_second():
    assert angular_variance(1.0) == CONSTANTS.t_P
    assert angular_variance(1.0) == pytest.approx(5.39e-44, rel=1e-3)


def test_angular_variance_at_correlation_time(model40):
    assert angular_variance(model40.tau_c) == pytest.approx(ANGVAR_TAUC_40, rel=1e-15)


def test_angular_variance_rejects_bad_times():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            angular_variance(bad)


# ------------------------------------------------------------- second moments


def test_autocorrelation_lag_zero(model40):
    assert autocorrelation(model40, 0.0) == model40.sigma2


def test_autocorrelation_half_support(model40):
    assert autocorrelation(model40, model40.tau_c / 2) == pytest.approx(
        model40.sigma2 / 2, rel=1e-15
    )


def test_autocorrelation_beyond_support(model40):
    assert autocorrelation(model40, 2 * model40.tau_c) == 0.0
    assert autocorrelation(model40, -2 * model40.tau_c) == 0.0


def test_autocorrelation_array_and_symmetry(model40):
    pos = np.linspace(0.0, 2 * model40.tau_c, 201)[1:]
    lags = np.concatenate([-pos[::-1], [0.0], pos])
    acf = autocorrelation(model40, lags)
    assert acf.shape == lags.shape
    assert np.array_equal(acf, acf[::-1])
    assert acf.max() == model40.sigma2
    # Non-increasing in |lag|.
    half = acf[200:]
    assert np.all(np.diff(half) <= 0)


def test_autocorrelation_rejects_nan(model40):
    with pytest.raises(DomainError):
        autocorrelation(model40, math.nan)


def test_psd_zero_frequency(model40):
    assert psd_model(model40, 0.0) == pytest.approx(PSD0_40, rel=1e-15)
    assert psd_model(model40, 0.0) == pytest.approx(
        2.0 * model40.sigma2 * model40.tau_c, rel=1e-15
    )


def test_psd_first_null(model40):
    assert psd_model(model40, 1.0 / model40.tau_c) == pytest.approx(
        0.0, abs=1e-60
    )


def test_psd_nonnegative(model40):
    f = np.linspace(0.0, 20.0 / model40.tau_c, 4001)
    assert np.all(psd_model(model40, f) >= 0.0)


def test_psd_integrates_to_variance(model40):
    # Integrate lobe by lobe out to the 2000th null, then bound the tail.
    tau = model40.tau_c
    total = 0.0
    for k in range(2000):
        part, _ = quad(lambda f: psd_model(model40, f), k / tau, (k + 1) / tau)
        total += part
    assert total == pytest.approx(model40.sigma2, rel=5e-3)


def test_psd_rejects_negative_frequency(model40):
    with pytest.raises(DomainError):
        psd_model(model40, -1.0)


# ----------------------------------------------------------------- slow drift


def test_drift_speed_forty_meters(model40):
    assert drift_speed(model40) == pytest.approx(DRIFT_40, rel=1e-15)


def test_drift_speed_in_cm_per_year(model40):
    cm_per_year = drift_speed(model40) * SECONDS_PER_YEAR * 100.0
    assert cm_per_year == pytest.approx(0.16, rel=0.01)
    # Same order as "centimeters per year": within a factor of 100 of 1 cm/yr.
    assert 1e-2 < cm_per_year < 1e2


def test_drift_speed_inverse_sqrt_scaling():
    m1 = HolographicModel.from_baseline(1.0)
    m100 = HolographicModel.from_baseline(100.0)
    assert drift_speed(m1) / drift_speed(m100) == pytest.approx(10.0, rel=1e-12)


# ----------------------------------------------------------- radial direction


def test_radial_resolution_is_planck_length():
    assert radial_resolution() == CONSTANTS.l_P
    # Published two-significant-figure value (1.6e-35 m); the CODATA-derived
    # figure sits 1.02% above that rounding, so the gate here is 2%.
    assert radial_resolution() == pytest.approx(1.6e-35, rel=0.02)


def test_transverse_to_radial_ratio():
    ratio = transverse_uncertainty(1.0) / radial_resolution()
    assert ratio == pytest.approx(2.5e17, rel=0.01)


# -------------------------------------------------------------- info counting


def test_info_budget_hair_width_at_hubble_radius():
    budget = info_budget(HUBBLE_RADIUS)
    assert budget.pixel_size == pytest.approx(PIXEL_HUBBLE, rel=1e-15)
    assert budget.pixel_size == pytest.approx(1.15e-4, rel=1e-3)
    # Order 0.1 mm.
    assert 1e-5 < budget.pixel_size < 1e-3


def test_info_budget_planck_region():
    budget = info_budget(CONSTANTS.l_P)
    assert budget.total_info == pytest.approx(1.0, rel=1e-15)
    assert budget.ratio == pytest.approx(1.0, rel=1e-15)


def test_info_budget_one_meter_pixel():
    budget = info_budget(1.0)
    assert budget.pixel_size == pytest.approx(PIXEL_1, rel=1e-15)
    assert budget.pixel_size == pytest.approx(1.01e-17, rel=1e-3)


def test_info_budget_structure():
    budget = info_budget(40.0)
    assert budget.refresh == pytest.approx(TAU_C_40, rel=1e-15)
    assert budget.dof_radial == budget.dof_angular
    assert budget.total_info == pytest.approx(budget.dof_radial**2, rel=1e-15)
    assert budget.field_theory_info == pytest.approx(budget.dof_radial**3, rel=1e-15)
    assert budget.ratio == pytest.approx(
        budget.field_theory_info / budget.total_info, rel=1e-15
    )
    assert budget.ratio >= 1.0


def test_info_budget_doubling_quadruples_exactly():
    assert info_budget(2.0).total_info == 4.0 * info_budget(1.0).total_info


def test_info_budget_rejects_sub_planckian():
    with pytest.raises(DomainError):
        info_budget(0.5 * CONSTANTS.l_P)
    with pytest.raises(DomainError):
        info_budget(-1.0)


# ------------------------------------------------------------------ invariants


@given(baselines)
def test_property_normalization_ratio(L):
    assert exact_rms(L) ** 2 / transverse_uncertainty(L) ** 2 == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), rel=1e-12
    )


@given(baselines)
def test_property_angular_times_length(L):
    assert angular_uncertainty(L) * L == pytest.approx(
        transverse_uncertainty(L), rel=1e-12
    )


@given(baselines)
def test_property_pixel_to_transverse_ratio(L):
    budget = info_budget(L)
    assert budget.pixel_size / transverse_uncertainty(L) == pytest.approx(
        math.sqrt(2.0 * math.pi), rel=1e-12
    )


@given(baselines)
def test_property_sqrt_scaling(L):
    assert transverse_uncertainty(4.0 * L) == pytest.approx(
        2.0 * transverse_uncertainty(L), rel=1e-12
    )


@given(baselines, st.floats(min_value=-1e3, max_value=1e3))
def test_property_autocorrelation_bounds(L, frac):
    model = HolographicModel.from_baseline(L)
    value = autocorrelation(model, frac * model.tau_c)
    assert 0.0 <= value <= model.sigma2 * (1.0 + 1e-12)
