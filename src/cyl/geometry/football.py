"""Conical metrics, the Phi pullback, the RP^3-football model manifold and
regularity probes of chart fields.

A cone metric is ds^2 + s^2 h(s) over a link (round S^3 or RP^3 presented as
the S^3 chart with antipodal identification).  Conformal families
h(s) = c(s) h0 pull back through Phi(x) = (|x|, x/|x|) to the closed-form
warped field c(u) delta + q(u) x x^T; general tensor families pull back
numerically.

The football is the suspension ds^2 + sin(s)^2 h_RP3, s in [0, pi]: a closed
model with exactly two Z2-conical points whose equivariant lift near each
pole is the round S^4 metric in normal coordinates (scalar curvature 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cyl.geometry.fields import (ChartMetricField, RadialProfile,
                                 WarpedRadialField, round_profile)
from cyl.geometry.links import LinkTensorFamily, sphere_points

__all__ = [
    "LinkFamily",
    "ConeMetric",
    "TensorPullbackField",
    "pullback_via_phi",
    "FootballModel",
    "football_metric",
    "regularity_probe",
    "RegularityReport",
    "chart_to_sphere",
    "sphere_distance_chart",
]


@dataclass(frozen=True)
class LinkFamily:
    """s-family of link metrics h(s) with h(0) the round metric.

    ``conformal_profile`` (c as a function of u = s^2) is set when
    h(s) = c(s) h0; general families supply ``tensor_family`` instead.
    """

    link: str = "S3"  # "S3" or "RP3"
    conformal_profile: RadialProfile | None = None
    tensor_family: LinkTensorFamily | None = None

    def __post_init__(self):
        if self.link not in ("S3", "RP3"):
            raise ValueError("link must be 'S3' or 'RP3'")
        if self.conformal_profile is None and self.tensor_family is None:
            raise ValueError("need a conformal profile or a tensor family")


@dataclass(frozen=True)
class ConeMetric:
    """The model ds^2 + s^2 h(s) on (0, s_max) x link."""

    link_family: LinkFamily
    s_max: float = math.pi / 2.0


class TensorPullbackField(ChartMetricField):
    """Numeric Phi-pullback of ds^2 + s^2 h(s) for a general tensor family:

        g(x)(v, w) = (xhat.v)(xhat.w) + h(|x|)(P v, P w),  P = I - xhat xhat^T.

    Values only; derivatives go through the centered-difference fallback.
    """

    def __init__(self, family: LinkTensorFamily):
        self.family = family
        self.fd_step = 1e-5

    def value(self, x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return np.eye(4)
        xhat = x / r
        P = np.eye(4) - np.outer(xhat, xhat)
        H = np.asarray(self.family.at(r, xhat))
        return np.outer(xhat, xhat) + P @ H @ P


def pullback_via_phi(cone: ConeMetric, ball_radius: float) -> ChartMetricField:
    """Cartesian chart metric g = Phi^* (ds^2 + s^2 h(s)) on the punctured
    ball, extended by the identity at 0.

    Conformal families return the closed-form warped field (with analytic
    derivatives); general families return the numeric pullback.  Evaluation
    raising on positive-definiteness is the chart-breakdown signal.
    """
    fam = cone.link_family
    if ball_radius > cone.s_max:
        raise ValueError("ball radius exceeds the cone chart")
    if fam.conformal_profile is not None:
        return WarpedRadialField(fam.conformal_profile)
    return TensorPullbackField(fam.tensor_family)


# ----------------------------------------------------------------------------
# the football
# ----------------------------------------------------------------------------

def chart_to_sphere(z) -> np.ndarray:
    """Ambient S^4 point of a normal-coordinate chart point at a pole."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    r = np.linalg.norm(pts, axis=1)
    out = np.empty((len(pts), 5))
    safe = r > 0.0
    out[:, 4] = np.cos(r)
    out[safe, :4] = (np.sin(r[safe]) / r[safe])[:, None] * pts[safe]
    out[~safe, :4] = 0.0
    return out[0] if single else out


def sphere_distance_chart(z1, z2) -> float:
    """Geodesic round-S^4 distance between two chart points."""
    p = chart_to_sphere(np.asarray(z1, dtype=float))
    q = chart_to_sphere(np.asarray(z2, dtype=float))
    return float(np.arccos(np.clip(p @ q, -1.0, 1.0)))


@dataclass(frozen=True)
class FootballModel:
    """The suspension of RP^3: two antipodal Z2-conical points, pole distance
    pi, scalar curvature 12, total volume half of Vol(S^4)."""

    delta: float
    cone: ConeMetric
    chart: WarpedRadialField

    @property
    def total_volume(self) -> float:
        return 4.0 * math.pi ** 2 / 3.0

    def lift_points(self, s: float, nu) -> tuple:
        """The two chart preimages (sigma_P fibers) of the quotient point at
        arclength s along direction nu."""
        nu = np.asarray(nu, dtype=float)
        return s * nu, -s * nu


def football_metric(delta: float) -> FootballModel:
    """The RP^3-football with lifted round charts of radius 2*delta."""
    if not 0.0 < delta < math.pi / 4.0:
        raise ValueError("need 0 < delta < pi/4")
    fam = LinkFamily(link="RP3", conformal_profile=round_profile())
    # the cone keeps its default s_max = pi/2: the order-12 series of
    # round_profile holds to machine precision only on u <= (pi/2)^2, and is
    # 3.2e-4 relative off at r = 3.132
    cone = ConeMetric(link_family=fam)
    chart = WarpedRadialField(round_profile())
    return FootballModel(delta=delta, cone=cone, chart=chart)


# ----------------------------------------------------------------------------
# regularity probe
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    sups: np.ndarray
    fitted_rate: float      # slope of log sup vs log r
    bounded: bool           # stays below a fitted constant as r -> 0


def _fd_derivative(fn, x, order: int, h: float, idx) -> float:
    """Centered difference of mixed partials d_{i1} ... d_{ik} fn at x."""
    if order == 0:
        return float(fn(x))
    e = np.zeros(4)
    e[idx[0]] = h
    return (_fd_derivative(fn, x + e, order - 1, h, idx[1:])
            - _fd_derivative(fn, x - e, order - 1, h, idx[1:])) / (2.0 * h)


def regularity_probe(target, order: int, radii, n_dirs: int = 12,
                     seed: int = 0) -> RegularityReport:
    """Sample order-``order`` difference quotients on shrinking spheres.

    ``target`` is a scalar callable x -> float or a ChartMetricField (every
    component of g - identity is probed).  Certifies boundedness when the
    fitted blow-up rate is above a small negative threshold.
    """
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    if np.any(radii <= 0.0):
        raise ValueError("radii must be positive and decreasing to 0")
    if isinstance(target, ChartMetricField):
        fld = target

        def components(x):
            return (fld.value(x) - np.eye(4)).ravel()

        scalars = [lambda x, i=i: components(x)[i] for i in range(16)]
    else:
        scalars = [target]
    dirs = sphere_points(n_dirs, seed)
    idx_sets = [(k,) * order for k in range(4)] if order > 0 else [()]
    if order >= 2:
        idx_sets += [(0, 1), (1, 2), (2, 3), (0, 3)]
    sups = []
    for r in radii:
        h = r / 8.0
        worst = 0.0
        for d in dirs:
            x = r * d
            for fn in scalars:
                for idx in idx_sets:
                    worst = max(worst, abs(_fd_derivative(fn, x, order, h, idx)))
        sups.append(worst)
    sups = np.array(sups)
    logs = np.log(np.maximum(sups, 1e-300))
    slope = np.polyfit(np.log(radii), logs, 1)[0]
    bounded = bool(slope > -0.05 or np.max(sups) < 1e-12)
    return RegularityReport(sups=sups, fitted_rate=float(slope),
                            bounded=bounded)
