"""Fraunhofer two-slit patterns under a transverse information bound.

With slits illuminated at wavelength ``c t_P`` a classical screen would
resolve separations down to the Planck length, but if the transverse
positions of the aperture are only defined to within
``transverse_uncertainty(L) = sqrt(L c t_P)`` of the screen distance ``L``,
the fringes wash out for separations below that scale.  The blur is applied
by convolving the aperture transmission with a Gaussian of that standard
deviation, which multiplies the far-field intensity by
``exp(-(2 pi sigma sin(theta) / lambda)^2)``.

`distinguishability` quantifies how far the blurred double-slit pattern is
from the blurred single-slit envelope; sweeping the separation shows the
two become distinguishable only once the separation approaches the blur
scale, not the wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError
from .model import transverse_uncertainty

#: Distance-metric value treated as "patterns are distinguishable".
DISTINGUISHABILITY_THRESHOLD = 0.1

#: Largest angle grid a SlitSetup accepts; a pattern holds a few arrays this long.
MAX_ANGLES = 2**24


@dataclass(frozen=True)
class SlitSetup:
    """Geometry of the two-slit screen experiment.

    ``wavelength`` defaults to the Planck length c t_P.  ``angle_span`` is
    the full width of the symmetric angle grid in radians; when omitted it
    is sized to cover the blur window 2 lambda / transverse_uncertainty(L),
    capped at 2.4 rad for numerically gentle wavelengths.
    """

    separation: float             # slit centre-to-centre distance, m
    slit_width: float             # width of each slit, m
    screen_distance: float        # aperture-to-screen distance L, m
    wavelength: float | None = None
    n_angles: int = 4096
    angle_span: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.separation) or self.separation < 0.0:
            raise DomainError(f"separation must be >= 0, got {self.separation!r}")
        for name in ("slit_width", "screen_distance"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(f"{name} must be positive, got {v!r}")
        if self.wavelength is None:
            object.__setattr__(self, "wavelength", CONSTANTS.l_P)
        if not math.isfinite(self.wavelength) or self.wavelength <= 0.0:
            raise DomainError(f"wavelength must be positive, got {self.wavelength!r}")
        if not 64 <= self.n_angles <= MAX_ANGLES:
            raise DomainError(
                f"n_angles must lie in [64, {MAX_ANGLES}], got {self.n_angles!r}"
            )
        blur = transverse_uncertainty(self.screen_distance)
        if blur == 0.0:
            raise DomainError(f"screen_distance {self.screen_distance!r} m gives a blur of 0")
        if self.angle_span is None:
            object.__setattr__(
                self, "angle_span", min(2.4, 2.0 * self.wavelength / blur)
            )
        if not math.isfinite(self.angle_span) or self.angle_span <= 0.0:
            raise DomainError(f"angle_span must be positive, got {self.angle_span!r}")

    def angles(self) -> np.ndarray:
        """Symmetric angle grid of n_angles points, rad."""
        half = 0.5 * self.angle_span
        return np.linspace(-half, half, self.n_angles)


@dataclass(frozen=True)
class PatternComparison:
    """Distance between a blurred double-slit pattern and its envelope."""

    separation: float      # slit separation probed, m
    bound: float           # transverse uncertainty at this geometry, m
    distance_metric: float # in [0, 1]; 0 means indistinguishable


def _normalize(intensity: np.ndarray) -> np.ndarray:
    total = intensity.sum()
    if not (math.isfinite(total) and total > 0.0):
        raise DomainError("pattern has no finite, positive power on the angle grid")
    return intensity / total


def fraunhofer_pattern(setup: SlitSetup) -> np.ndarray:
    """Unit-sum two-slit intensity on the angle grid.

    I(theta) ~ sinc^2(a sin(theta)/lambda) cos^2(pi d sin(theta)/lambda)
    with slit width a and separation d; separation 0 reduces to the pure
    single-slit envelope.  It is the blurred pattern at blur 0, whose
    damping factor is exactly 1.
    """
    return information_blurred_pattern(setup, 0.0)


def information_blurred_pattern(setup: SlitSetup, blur: float | None = None) -> np.ndarray:
    """Unit-sum pattern of the aperture convolved with a Gaussian blur.

    ``blur`` is the Gaussian standard deviation in metres and defaults to
    transverse_uncertainty(screen_distance); blur = 0 recovers
    `fraunhofer_pattern` exactly.
    """
    if blur is None:
        blur = transverse_uncertainty(setup.screen_distance)
    if not math.isfinite(blur) or blur < 0.0:
        raise DomainError(f"blur must be >= 0, got {blur!r}")
    s = np.sin(setup.angles())
    lam = setup.wavelength
    # A phase past the float range makes a NaN pattern, which _normalize refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.sinc(setup.slit_width * s / lam) ** 2
        fringes = np.cos(np.pi * setup.separation * s / lam) ** 2
        damping = np.exp(-((2.0 * np.pi * blur * s / lam) ** 2))
        return _normalize(envelope * fringes * damping)


def _pattern_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Scale-invariant L2 distance min over alpha of ||p/|p| - alpha q/|q|||.

    Equals sqrt(1 - r^2) for cosine similarity r; bounded in [0, 1] and zero
    iff the patterns are proportional.
    """
    pn = p / math.sqrt(np.sum(p * p))
    qn = q / math.sqrt(np.sum(q * q))
    r = float(np.sum(pn * qn))
    return math.sqrt(max(0.0, 1.0 - r * r))


def distinguishability(setup: SlitSetup, blur: float | None = None) -> PatternComparison:
    """Compare the blurred pattern against the blurred zero-separation one."""
    if blur is None:
        blur = transverse_uncertainty(setup.screen_distance)
    metric = _pattern_distance(
        information_blurred_pattern(setup, blur),
        information_blurred_pattern(replace(setup, separation=0.0), blur),
    )
    return PatternComparison(
        separation=setup.separation,
        bound=transverse_uncertainty(setup.screen_distance),
        distance_metric=metric,
    )


def separation_sweep(
    setup: SlitSetup,
    span_factor: float = 30.0,
    n_points: int = 41,
) -> tuple[np.ndarray, np.ndarray]:
    """Distance metric over a log-spaced separation sweep around the bound.

    Returns (separations, metrics); the sweep covers
    [bound / span_factor, bound * span_factor].  Each point is
    `distinguishability` at the bound's blur, against one shared reference.
    """
    bound = transverse_uncertainty(setup.screen_distance)
    if span_factor <= 1.0 or n_points < 3:
        raise DomainError("sweep needs span_factor > 1 and n_points >= 3")
    separations = np.geomspace(bound / span_factor, bound * span_factor, n_points)
    single = information_blurred_pattern(replace(setup, separation=0.0), bound)
    metrics = np.empty_like(separations)
    for i, d in enumerate(separations):
        probe = replace(setup, separation=float(d))
        metrics[i] = _pattern_distance(information_blurred_pattern(probe, bound), single)
    return separations, metrics


def threshold_crossing(
    setup: SlitSetup,
    threshold: float = DISTINGUISHABILITY_THRESHOLD,
    span_factor: float = 30.0,
    n_points: int = 41,
) -> float:
    """Separation at which the sweep first crosses ``threshold``, in m.

    Log-linear interpolation between the bracketing sweep points.  Raises
    DomainError when the sweep never reaches the threshold.
    """
    seps, metrics = separation_sweep(setup, span_factor, n_points)
    above = np.nonzero(metrics >= threshold)[0]
    if len(above) == 0:
        raise DomainError("sweep never crosses the distinguishability threshold")
    j = int(above[0])
    if j == 0:
        return float(seps[0])
    x0, x1 = math.log(seps[j - 1]), math.log(seps[j])
    y0, y1 = metrics[j - 1], metrics[j]
    t = (threshold - y0) / (y1 - y0)
    return math.exp(x0 + t * (x1 - x0))
