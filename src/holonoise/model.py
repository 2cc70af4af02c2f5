"""Transverse position noise of a geometry with Planck-limited bandwidth.

A position measured over a baseline ``L`` carries an irreducible transverse
uncertainty ``sqrt(L c t_P)`` — the geometric mean of the baseline and the
Planck length — with exact variance ``sigma2 = L c t_P / sqrt(4 pi)``.  The
fluctuation decorrelates over the light round-trip time ``tau_c = 2 L / c``.

The second-order statistics are modelled by a triangular autocovariance on
``[-tau_c, tau_c]``; its one-sided power spectral density
``2 sigma2 tau_c sinc^2(f tau_c)`` is non-negative and integrates back to
``sigma2``.  `info_budget` counts the degrees of freedom implied by that
uncertainty: a bounded region of size ``L`` supports ``(L / c t_P)^2``
position states, against the ``(L / c t_P)^3`` a field-theory mode count
would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError

#: Comoving-horizon scale used for the largest-baseline illustrations, m.
HUBBLE_RADIUS = 1.3e26

#: Seconds per year used for the slow-drift illustration.
SECONDS_PER_YEAR = 3.156e7


def _require_length(L: float, name: str = "L") -> None:
    if not math.isfinite(L) or L <= 0.0:
        raise DomainError(f"{name} must be a finite positive length, got {L!r}")


@dataclass(frozen=True)
class HolographicModel:
    """Noise model for one baseline: variance and correlation time."""

    L: float       # baseline, m
    sigma2: float  # transverse position variance, m^2
    tau_c: float   # correlation time 2 L / c, s

    @classmethod
    def from_baseline(cls, L: float) -> "HolographicModel":
        _require_length(L)
        k = CONSTANTS
        sigma2 = L * k.c * k.t_P / math.sqrt(4.0 * math.pi)
        tau_c = 2.0 * L / k.c
        if not all(math.isfinite(v) and v > 0.0 for v in (sigma2, tau_c)):
            raise DomainError(
                f"arm length L = {L!r} m is out of range: tau_c = 2L/c = {tau_c!r} s "
                f"and sigma2 = {sigma2!r} m^2 must be finite and positive"
            )
        return cls(L=L, sigma2=sigma2, tau_c=tau_c)


@dataclass(frozen=True)
class InfoBudget:
    """Degree-of-freedom accounting for a bounded region of size L."""

    L: float                  # region size, m
    pixel_size: float         # transverse cell size sqrt(2 pi L c t_P), m
    refresh: float            # refresh interval 2 L / c, s
    dof_radial: float         # L / (c t_P)
    dof_angular: float        # L / (c t_P)
    total_info: float         # (L / c t_P)^2
    field_theory_info: float  # (L / c t_P)^3
    ratio: float              # field_theory_info / total_info = L / (c t_P)


def transverse_uncertainty(L: float) -> float:
    """RMS transverse position blur sqrt(L c t_P) at baseline L, in m."""
    _require_length(L)
    return math.sqrt(L * CONSTANTS.l_P)


def angular_uncertainty(L: float) -> float:
    """Angular blur sqrt(c t_P / L) = transverse_uncertainty(L) / L, in rad."""
    _require_length(L)
    return math.sqrt(CONSTANTS.l_P / L)


def exact_rms(L: float) -> float:
    """RMS with the exact normalization, sqrt(L c t_P / sqrt(4 pi)), in m."""
    _require_length(L)
    return math.sqrt(L * CONSTANTS.l_P / math.sqrt(4.0 * math.pi))


def angular_variance(tau: float) -> float:
    """Angular variance spectrum t_P / tau at averaging time tau, in rad^2."""
    if not math.isfinite(tau) or tau <= 0.0:
        raise DomainError(f"averaging time must be finite and positive, got {tau!r}")
    return CONSTANTS.t_P / tau


def radial_resolution() -> float:
    """Radial (longitudinal) resolution floor c t_P, in m."""
    return CONSTANTS.l_P


def autocorrelation(model: HolographicModel, lag):
    """Triangular autocovariance sigma2 * max(0, 1 - |lag| / tau_c), in m^2.

    ``lag`` may be a scalar or array of lags in seconds.
    """
    lag = np.asarray(lag, dtype=float)
    if not np.all(np.isfinite(lag)):
        raise DomainError("lags must be finite")
    out = model.sigma2 * np.clip(1.0 - np.abs(lag) / model.tau_c, 0.0, None)
    return out if out.ndim else float(out)


def psd_model(model: HolographicModel, f):
    """One-sided PSD 2 sigma2 tau_c sinc^2(f tau_c), in m^2/Hz.

    sinc is the normalized sin(pi x)/(pi x); the spectrum integrates to
    sigma2 over f in [0, inf).  ``f`` may be a scalar or array, f >= 0.
    """
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)) or np.any(f < 0.0):
        raise DomainError("frequencies must be finite and non-negative")
    out = 2.0 * model.sigma2 * model.tau_c * np.sinc(f * model.tau_c) ** 2
    return out if out.ndim else float(out)


def drift_speed(model: HolographicModel) -> float:
    """Apparent wander rate sqrt(sigma2) / tau_c, in m/s."""
    return math.sqrt(model.sigma2) / model.tau_c


def info_budget(L: float) -> InfoBudget:
    """Count position degrees of freedom for a region of size L >= c t_P."""
    _require_length(L)
    lp = CONSTANTS.l_P
    if L < lp:
        raise DomainError(f"region size {L!r} m is below the resolution floor {lp!r} m")
    dof = L / lp
    return InfoBudget(
        L=L,
        pixel_size=math.sqrt(2.0 * math.pi * L * lp),
        refresh=2.0 * L / CONSTANTS.c,
        dof_radial=dof,
        dof_angular=dof,
        total_info=dof**2,
        field_theory_info=dof**3,
        ratio=dof,
    )
