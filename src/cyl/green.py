"""Dirichlet Green functions of the conformal Laplacian on lifted balls,
equivariant assembly on the Z2-quotient, and mass extraction.

Normalization: L g = -6 Delta_g + R_g and  L G_x = 24 pi^2 delta_x  (the
4-dimensional fundamental constant: -Delta |y|^-2 = 4 pi^2 delta in R^4).

The suite's lifted metrics (flat cone, football lift) are radially symmetric
about the chart origin.  With G = zeta + phi and zeta the exact fundamental
kernel of the chart (|y - x|^-2 flat, 1/(4 sin^2(d/2)) round), the
L-harmonic remainder phi, -zeta at delta, sums the chart's zonal modes
g(r) x(r)^l U_l(cos gamma) (flat g = 1, x = r/delta; round, wc g x^l is
flat-harmonic in xi = tan(r/2), wc = 2 cos^2(r/2), by the conformal
covariance of L, Lee & Parker, Bull. AMS 1987).  By the Chebyshev-U
generating function sum_l U_l(c) h^l = 1/(1 - 2ch + h^2) the boundary modes
are b_0 x(t)^l, and the sum is one closed term, the Kelvin image of the pole:

    phi = b_0 g(r) / ((1 - X)^2 + 2X(1 - c)),  X = x(t) x(r),
    b_0 = -kernel(delta) g(t)/g(0).

Conformal normal coordinates enter as an exact transformation: for
gbar = e^f gtilde with f(pole) = 0, the Green functions obey
Gbar_x = e^{-f/2} Gtilde_x (Lee & Parker), and on a gbar sphere about the
pole the factor is one number.

Closed forms (images for the flat ball, stereographic conformal images for
the round ball, the global football kernel) are kept as independent oracles.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cyl.constants import bubble
from cyl.geometry.cnc import cnc_profile
from cyl.geometry.fields import (ChartMetricField, FlatField, WarpedRadialField,
                                 round_profile)
from cyl.geometry.football import chart_to_sphere, sphere_distance_chart
from cyl.geometry.links import tangent_frame
from cyl.quadrature import _sphere3_nodes, gauss_legendre

KAPPA = 24.0 * math.pi ** 2  # 4 a pi^2 with a = 6
COUPLING_TOL = 1e-9  # largest mode-coupling defect the solver accepts
HARMONIC_LMAX = 28  # the degree of solve_harmonic_extension's mode sum

__all__ = [
    "KAPPA",
    "RadialChart",
    "GreenProblem",
    "GreenEvaluator",
    "GreenExpansion",
    "ZonalModeSum",
    "chart_for_field",
    "matching_constant",
    "solve_dirichlet_green",
    "solve_harmonic_extension",
    "AssembledGreen",
    "extract_mass",
    "mass_divergence_sweep",
    "parametrix_residual",
    "parametrix_sweep",
    "flat_ball_green",
    "round_ball_green",
    "football_global_green",
    "sphere_kernel",
    "sphere_kernel_slope",
    "chebyshev_u",
]


# ----------------------------------------------------------------------------
# radial charts
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialChart:
    """Warped chart dr^2 + w(r)^2 h0 about the origin with scalar curvature
    R(r), fundamental kernel of L, zonal mode basis, radial extent, whether
    its origin is a cone tip and its geodesic spheres; the geometry the mode
    sum, the mass extraction and the DOUBLE leg read, each from its own
    field."""

    kind: str            # the chart's name, 'flat' or 'round', for messages
    w: object            # r -> warp
    scal: object         # r -> scalar curvature
    dist: object         # (r1, r2, cos gamma) -> distance between chart points
    kernel: object       # distance -> fundamental kernel, L k = 24 pi^2 delta
    basis: object        # (r, delta) -> (g, x): L-harmonic modes g x^l U_l,
                         # regular at 0 and equal to 1 at delta
    extent: float        # the largest chart radius: inf flat, pi round
    tip: bool            # the origin is a cone tip, where no pole may sit
    sphere: object       # (pole, dirs) -> (s -> points at distance s along dirs)

    @staticmethod
    def flat() -> "RadialChart":
        def dist(r1, r2, c):
            return np.sqrt(np.maximum(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * c, 0.0))

        def basis(r, delta):
            return np.ones_like(r), r / delta

        return RadialChart("flat", lambda r: r,
                           lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                           dist, lambda d: 1.0 / np.asarray(d, dtype=float) ** 2,
                           basis, math.inf, False,
                           lambda pole, dirs: lambda s: pole[None, :] + s * dirs)

    @staticmethod
    def round() -> "RadialChart":
        def dist(r1, r2, c):
            arg = np.cos(r1) * np.cos(r2) + np.sin(r1) * np.sin(r2) * c
            return np.arccos(np.clip(arg, -1.0, 1.0))

        def basis(r, delta):
            # the flat modes |xi|^l in xi = tan(r/2), divided by wc
            return ((math.cos(0.5 * delta) / np.cos(0.5 * r)) ** 2,
                    np.tan(0.5 * r) / math.tan(0.5 * delta))

        return RadialChart("round", np.sin,
                           lambda r: np.full_like(np.asarray(r, dtype=float), 12.0),
                           dist, sphere_kernel, basis, math.pi, True,
                           _round_sphere)

    def mode_coupling_defect(self, xs, values) -> float:
        """Sup defect between a field's values at the rows of ``xs`` and this
        chart's warped form there: the guard against non-radial fields."""
        r = np.linalg.norm(xs, axis=1)[:, None, None]
        c = self.w(r) ** 2 / r ** 2
        P = xs[:, :, None] * xs[:, None, :] / r ** 2
        return float(np.max(np.abs(values - (P + c * (np.eye(4) - P)))))


def _round_sphere(pole, dirs: np.ndarray):
    """s -> the round chart's points at geodesic distance s from the pole
    along the unit chart directions dirs, one row per direction: ambient S^4
    geodesics from the lifted pole, the directions lifted to S^4 tangents at
    the pole once, for all s."""
    p = chart_to_sphere(pole)
    # tangent lift of a chart direction v: the derivative of chart_to_sphere
    # at the pole, ((sin r/r) v + (cos r - sin r/r) a e, -sin r a), with
    # r = |pole|, e = pole/r and a = e.v, normalized
    r = float(np.linalg.norm(pole))
    e = pole / r if r > 0.0 else np.zeros(4)
    a = dirs @ e
    sinc = np.sinc(r / math.pi)
    dp = np.column_stack([sinc * dirs + np.outer((math.cos(r) - sinc) * a, e),
                          -math.sin(r) * a])
    dp /= np.linalg.norm(dp, axis=1, keepdims=True)

    def points(s: float) -> np.ndarray:
        q = math.cos(s) * p + math.sin(s) * dp
        # back to chart coordinates: polar angle about the north pole
        theta = np.arccos(np.clip(q[:, 4], -1.0, 1.0))
        head = q[:, :4]
        nh = np.linalg.norm(head, axis=1)
        return head * np.divide(theta, nh, out=np.zeros_like(nh),
                                where=nh > 0)[:, None]

    return points


@lru_cache(maxsize=1)
def _chart_draws() -> tuple:
    """chart_for_field's 8 seeded draws, a direction x, a radius fraction u
    and |x| each, drawn once from default_rng(0)."""
    rng = np.random.default_rng(0)
    draws = [(rng.normal(size=4), rng.uniform(0.05, 0.95)) for _ in range(8)]
    x, u = (np.array(column) for column in zip(*draws))
    norm = np.array([np.linalg.norm(row) for row in x])
    for a in (x, u, norm):
        a.flags.writeable = False
    return x, u, norm


def chart_for_field(field: ChartMetricField, delta: float) -> RadialChart:
    """The flat or round chart that the field, evaluated once at 8 seeded
    points of the ball of radius delta, matches best, to COUPLING_TOL; delta
    must be a ball's radius on it, below the chart's extent."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    x, u, norm = _chart_draws()
    xs = x * (u * delta / norm)[:, None]
    values = np.array([field.value(p) for p in xs])
    charts = (RadialChart.flat(), RadialChart.round())
    defects = [chart.mode_coupling_defect(xs, values) for chart in charts]
    best = int(np.argmin(defects))
    if not defects[best] <= COUPLING_TOL:
        raise ValueError("no radial chart available for this field; the Green "
                         "solver requires a radially symmetric suite metric "
                         f"(defect={defects[best]:g})")
    if not delta < charts[best].extent:
        raise ValueError(f"delta must be < {charts[best].extent:g} on the "
                         f"{charts[best].kind} chart, got {delta!r}")
    return charts[best]


# ----------------------------------------------------------------------------
# zonal harmonics
# ----------------------------------------------------------------------------

def chebyshev_u(lmax: int, c) -> np.ndarray:
    """U_l(c) for l = 0..lmax, shape (lmax+1, len(c)); the S^3 zonal
    harmonics with eigenvalue l(l+2) and U_l(1) = l + 1."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    U = np.empty((lmax + 1,) + c.shape)
    U[0] = 1.0
    if lmax >= 1:
        U[1] = c2 = 2.0 * c
        for l in range(2, lmax + 1):
            np.multiply(c2, U[l - 1], out=U[l])
            U[l] -= U[l - 2]
    return U


def zonal_project(fn, lmax: int) -> np.ndarray:
    """Coefficients f_l = (2/pi) int_0^pi fn(gamma) U_l(cos gamma) sin^2 dgamma."""
    x, wq = gauss_legendre(2 * lmax + 32)
    gamma = 0.5 * math.pi * (x + 1.0)
    wq = 0.5 * math.pi * wq
    vals = np.asarray(fn(gamma), dtype=float)
    U = chebyshev_u(lmax, np.cos(gamma))
    s2 = np.sin(gamma) ** 2
    return (2.0 / math.pi) * (U * (vals * s2)[None, :]) @ wq


# ----------------------------------------------------------------------------
# closed-form kernels (oracles)
# ----------------------------------------------------------------------------

def sphere_kernel(d):
    """Global Green kernel of L on the round S^4: 1/(4 sin^2(d/2))."""
    return 0.25 / np.sin(0.5 * np.asarray(d, dtype=float)) ** 2


def sphere_kernel_slope(d):
    """d/dd of the sphere kernel: -cos(d/2) / (4 sin^3(d/2))."""
    u = 0.5 * np.asarray(d, dtype=float)
    return -0.25 * np.cos(u) / np.sin(u) ** 3


class flat_ball_green:
    """Dirichlet Green function on a flat 4-ball by the image method:
    G_x(y) = |y-x|^-2 - delta^2 / (|x|^2 |y - x*|^2), x* = delta^2 x/|x|^2."""
    chart = RadialChart.flat()

    def __init__(self, delta: float, pole):
        self.delta = delta
        self.pole = np.asarray(pole, dtype=float)

    def value(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d2 = np.sum((pts - self.pole) ** 2, axis=1)
        t2 = float(self.pole @ self.pole)
        if t2 == 0.0:
            return 1.0 / d2 - 1.0 / self.delta ** 2
        star = self.delta ** 2 * self.pole / t2
        dstar2 = np.sum((pts - star) ** 2, axis=1)
        return 1.0 / d2 - self.delta ** 2 / (t2 * dstar2)


class round_ball_green:
    """Dirichlet Green function on a geodesic ball of the round S^4 through
    stereographic conformal images:

        G_x(y) = wc(xi_x)^-1 wc(xi_y)^-1 [ |xi_y - xi_x|^-2
                  - R_s^2 / (|xi_x|^2 |xi_y - xi_x*|^2) ],
        wc(xi) = 2/(1+|xi|^2),  R_s = tan(delta/2),

    with xi = tan(|z|/2) z/|z| the stereographic image of the normal-
    coordinate chart point z.
    """
    chart = RadialChart.round()

    def __init__(self, delta: float, pole):
        self.delta = delta
        self.pole = np.asarray(pole, dtype=float)
        self.Rs = math.tan(0.5 * delta)
        self.xi_pole = self._xi(self.pole[None, :])[0]

    @staticmethod
    def _xi(pts):
        r = np.linalg.norm(pts, axis=1)
        out = np.zeros_like(pts)
        safe = r > 0.0
        out[safe] = (np.tan(0.5 * r[safe]) / r[safe])[:, None] * pts[safe]
        return out

    @staticmethod
    def _wc(xi):
        return 2.0 / (1.0 + np.sum(xi * xi, axis=1))

    def value(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xi = self._xi(pts)
        wy = self._wc(xi)
        wx = float(self._wc(self.xi_pole[None, :])[0])
        d2 = np.sum((xi - self.xi_pole) ** 2, axis=1)
        t2 = float(self.xi_pole @ self.xi_pole)
        if t2 == 0.0:
            flat = 1.0 / d2 - 1.0 / self.Rs ** 2
        else:
            star = self.Rs ** 2 * self.xi_pole / t2
            flat = 1.0 / d2 - self.Rs ** 2 / (t2 * np.sum((xi - star) ** 2, axis=1))
        return flat / (wx * wy)


class football_global_green:
    """Equivariant lift of the global football Green function: the sum of the
    round-sphere kernels at the two chart preimages of the pole."""
    chart = RadialChart.round()

    def __init__(self, pole):
        self.pole = np.asarray(pole, dtype=float)

    def value(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return sphere_kernel(sphere_distance_chart(pts, self.pole)) \
            + sphere_kernel(sphere_distance_chart(pts, -self.pole))


# ----------------------------------------------------------------------------
# Dirichlet problems
# ----------------------------------------------------------------------------

@dataclass
class GreenProblem:
    """A Dirichlet problem L G = 24 pi^2 delta_x on the lifted ball."""

    field: ChartMetricField
    pole: np.ndarray
    delta: float

    def __post_init__(self):
        self.chart = chart_for_field(self.field, self.delta)
        self._set_pole(self.pole)

    def _set_pole(self, pole):
        self.pole = np.asarray(pole, dtype=float)
        t = float(np.linalg.norm(self.pole))
        # the pole must avoid the cone tip; a centered pole is only meaningful
        # for the flat ball, where there is no tip
        tip = self.chart.tip
        if not (1e-300 if tip else 0.0) <= t < self.delta / 4.0 + 1e-12:
            raise ValueError(f"pole must satisfy {'0 <' if tip else '0 <='} "
                             f"|x| < delta/4 on the {self.chart.kind} chart")

    def with_pole(self, pole) -> "GreenProblem":
        """This problem with its pole at ``pole``, on the chart this one
        resolved: the field is not sampled again, the pole is checked."""
        moved = copy.copy(self)
        moved._set_pole(pole)
        return moved


def _axis(pole) -> np.ndarray:
    """Unit vector along the pole; e1 for the centred pole."""
    t = float(np.linalg.norm(pole))
    return pole / t if t > 0.0 else np.array([1.0, 0.0, 0.0, 0.0])


def _polar(pts, axis):
    """The radii of the points and the cosines of their angles against the
    unit axis, each row's from that row alone."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    # r^2 as column sums, ((x0^2 + x1^2) + x2^2) + x3^2: the order and bits
    # of np.linalg.norm's reduce on a 4-long row, without its per-row cost
    r = pts[:, 0] * pts[:, 0]
    for j in range(1, pts.shape[1]):
        r += pts[:, j] * pts[:, j]
    r = np.sqrt(r, out=r)
    # the cosine as two column pairs, (x0 a0 + x2 a2) + (x1 a1 + x3 a3): the
    # order and bits of einsum's two-lane loop, each row's its own in any
    # batch; a one-row pts @ axis is a dot product that rounds unlike the
    # multi-row mat-vec
    c = pts[:, 0] * axis[0]
    c += pts[:, 2] * axis[2]
    odd = pts[:, 1] * axis[1]
    odd += pts[:, 3] * axis[3]
    c = np.divide(np.add(c, odd, out=c), r, out=np.zeros_like(r), where=r > 0.0)
    return r, np.clip(c, -1.0, 1.0, out=c)


class ZonalModeSum:
    """u(y) = sum_l b_l g(|y|) x(|y|)^l U_l(cos gamma), gamma the angle
    between y and the axis, (g, x) the chart's mode basis on the ball of
    radius delta and b_l the modes' Dirichlet values at delta."""

    def __init__(self, axis, chart: RadialChart, delta: float, bmodes):
        self.axis = axis
        self.basis = chart.basis
        self.delta = delta
        self.bmodes = bmodes

    def at(self, r, c) -> np.ndarray:
        # x^l is a running product, each entry's bits its own in any batch
        g, x = self.basis(r, self.delta)
        out = np.zeros(len(r))
        for b_l, U_l in zip(self.bmodes, chebyshev_u(len(self.bmodes) - 1, c)):
            out += b_l * g * U_l
            g = g * x
        return out

    def value(self, pts) -> np.ndarray:
        r, c = _polar(pts, self.axis)
        return self.at(r, c)


class GreenEvaluator:
    """Callable Green function, the chart's kernel plus the Kelvin image of
    the pole, b_0 g(r) / ((1 - X)^2 + 2X(1 - c)) with X = x(t) x(r) and
    b_0 = -kernel(delta) g(t)/g(0); immutable after assembly.  Its error is
    the image's rounding, 8 ulp of its largest value on the ball, at
    r = delta, gamma = 0."""

    def __init__(self, chart: RadialChart, pole, delta: float):
        self.chart = chart
        self.pole = np.asarray(pole, dtype=float)
        self.t = float(np.linalg.norm(self.pole))
        self.axis = _axis(self.pole)
        self.delta = delta
        g, x = chart.basis(np.array([self.t, 0.0]), delta)
        self.b0, self.x_t = -float(chart.kernel(delta) * g[0] / g[1]), x[0]
        self.error_estimate = float(8.0 * np.finfo(float).eps * abs(self.b0)
                                    / (1.0 - self.x_t) ** 2)

    def boundary_trace_defect(self) -> float:
        gam = np.linspace(0.0, math.pi, 64)
        pts = np.stack([self.delta * np.cos(gam), self.delta * np.sin(gam),
                        np.zeros(64), np.zeros(64)], axis=1)
        return float(np.max(np.abs(self.value(pts))))

    def value(self, pts) -> np.ndarray:
        r, c = _polar(pts, self.axis)
        g, x = self.chart.basis(r, self.delta)
        kernel = self.chart.kernel(self.chart.dist(r, self.t, c))
        # the image term in its order, b0 g / ((1 - X)^2 + (2X)(1 - c)), plus
        # the kernel, in place on arrays this call allocated
        X = self.x_t * x
        den = 1.0 - X
        den *= den
        X *= 2.0
        X *= np.subtract(1.0, c, out=c)
        den += X
        return np.add(np.divide(self.b0 * g, den, out=den), kernel, out=den)


def solve_dirichlet_green(problem: GreenProblem) -> GreenEvaluator:
    """Solve L G = 24 pi^2 delta_x, G = 0 on the chart sphere of radius delta.

    Splits G = zeta + phi with zeta the chart's fundamental kernel; phi, the
    L-harmonic extension of -zeta from the boundary, sums the chart's modes
    b_0 x(t)^l g x^l U_l to the Kelvin image of the pole.
    """
    return GreenEvaluator(problem.chart, problem.pole, problem.delta)


def solve_harmonic_extension(field: ChartMetricField, delta: float,
                             datum) -> ZonalModeSum:
    """Solve L H = 0 in the ball with zonal Dirichlet datum(gamma) on the
    boundary, gamma measured against e1, to degree HARMONIC_LMAX;
    equivariant data must carry even modes only."""
    chart = chart_for_field(field, delta)
    bmodes = zonal_project(lambda g: np.asarray(datum(g), dtype=float),
                           HARMONIC_LMAX)
    odd_power = float(np.sum(np.abs(bmodes[1::2])))
    if odd_power > 1e-8 * (1.0 + float(np.sum(np.abs(bmodes)))):
        raise ValueError("equivariant boundary datum must be antipodally even")
    return ZonalModeSum(_axis(np.zeros(4)), chart, delta, bmodes)


# ----------------------------------------------------------------------------
# equivariant assembly
# ----------------------------------------------------------------------------

class AssembledGreen:
    """Equivariant quotient Green function through the double cover:
    G_q o sigma_P = G_x + G_{-x} + H_x, with G_{-x}(y) = G_x(-y) by the
    equivariance of the suite metrics.  The harmonic part H_x is 0 on the
    flat cone and the football, which are conformally flat; a model that is
    not brings H back together with its caller."""

    def __init__(self, g_plus: GreenEvaluator):
        self.g_plus = g_plus
        self.chart = g_plus.chart

    def value(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.g_plus.value(pts) + self.g_plus.value(-pts)


# ----------------------------------------------------------------------------
# mass extraction
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenExpansion:
    t: float
    A_q: float
    error: float


def matching_constant(epsilon: float, tau: float, A_q: float) -> float:
    """The gluing constant nu of the U/Green continuity condition at
    |z| = tau:  c4/eps / (1 + tau^2/eps^2) = (tau^-2 + A_q)/nu."""
    return (1.0 / tau ** 2 + A_q) / bubble(tau * tau, epsilon)


@lru_cache(maxsize=32)
def _sym_directions(n: int = 6) -> np.ndarray:
    nodes, w = _sphere3_nodes(n, n, 2 * n)
    dirs, weights = np.concatenate([nodes, -nodes]), np.concatenate([w, w])
    weights /= np.sum(weights)
    dirs.flags.writeable = weights.flags.writeable = False
    return dirs, weights


def extract_mass(evaluator, pole, eps0: float = None,
                 profile=None) -> GreenExpansion:
    """Mass by Richardson extrapolation of spherical means of G - |z|^-2.

    Sample spheres are gbar-geodesic spheres of radius eps_k = eps0 * 2^-k,
    k = 0..3, around the pole.  With the ``RadialCNCProfile`` ``profile`` the
    g-radius of each is s = ``profile.radius_inverse(eps_k)``, and the values
    on it are multiplied by the CNC factor e^{-f(s)/2}.  That is the whole of
    Gbar = e^{-f/2} G there while s <= 0.49 t, which eps0 <= 0.49 t ensures
    (s <= rho): every point lies at least 1.5 t > t/2 from the mirror pole,
    where the mirror branch of the equivariant f vanishes.  The geodesics are
    those of ``evaluator.chart``.  Antipodal direction pairs kill the odd
    terms of the C^1 remainder.

    The error adds to the fit's misfit how far the extrapolant moves when
    the smallest sphere is dropped, and the rounding floor of the sphere
    means, eps_machine / eps_min^2: values of size eps^-2 cancel down to A.
    """
    pole = np.asarray(pole, dtype=float)
    t = float(np.linalg.norm(pole))
    if eps0 is None:
        eps0 = t / 8.0
    if profile is not None and not eps0 <= 0.49 * t:
        raise ValueError(f"a CNC profile needs eps0 <= 0.49 t, got {eps0!r}")
    if not 0.0 < eps0 < math.inf:
        raise ValueError(f"eps0 must be finite and > 0, got {eps0!r}")
    radii = eps0 * 0.5 ** np.arange(4)
    s, factor = radii, np.ones(4)
    if profile is not None:
        s = profile.radius_inverse(radii)
        factor = np.exp(-0.5 * profile.value(s))
    dirs, weights = _sym_directions()
    # orthonormal tangent completion: rotate e1 onto the pole axis
    axis = _axis(pole)
    sphere = evaluator.chart.sphere(
        pole, dirs @ np.vstack([axis, tangent_frame(axis)]).T)
    # one evaluation for the four spheres; each mean reads its own slice
    values = evaluator.value(np.concatenate([sphere(float(s_k)) for s_k in s]))
    n = len(dirs)
    means = np.array([
        float(np.sum(weights * (values[k * n:(k + 1) * n] * f_k - 1.0 / eps ** 2)))
        for k, (eps, f_k) in enumerate(zip(radii, factor))])
    design = np.stack([np.ones(4), radii, radii ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, means, rcond=None)
    fitted = design @ coef
    refit = np.linalg.solve(design[:3], means[:3])[0]  # without the smallest
    err = (float(np.max(np.abs(means - fitted))) + abs(means[-1] - coef[0]) * 0.5
           + abs(coef[0] - refit) + np.finfo(float).eps / radii[-1] ** 2)
    return GreenExpansion(t=t, A_q=float(coef[0]), error=float(err))


# ----------------------------------------------------------------------------
# sweeps and the parametrix law
# ----------------------------------------------------------------------------

def mass_divergence_sweep(model: str, t_grid, delta: float) -> list:
    """Per t: one Dirichlet solve, its equivariant assembly and the mass on
    gbar spheres, with the CNC factor on the football.  The chart is resolved
    once for the sweep, and every t is checked before the first solve.
    Returns rows of dicts with the A_q * 4 t^2 column; each row's error adds
    the solver's error estimate to the extraction's."""
    if model == "flat-cone":
        field, cnc = FlatField(), None
    elif model == "football":
        field, cnc = WarpedRadialField(round_profile()), cnc_profile
    else:
        raise ValueError("model must be 'flat-cone' or 'football'")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not len(t_grid):
        raise ValueError("t_grid must be a non-empty 1-d sequence of t, "
                         f"got shape {t_grid.shape}")
    if not all(0.0 < t < math.inf for t in t_grid):
        raise ValueError("every t must be finite and > 0")
    poles = [np.array([t, 0.0, 0.0, 0.0]) for t in t_grid]
    first = GreenProblem(field, poles[0], delta)
    problems = [first.with_pole(pole) for pole in poles]
    rows = []
    for t, problem in zip(t_grid, problems):
        g_plus = solve_dirichlet_green(problem)
        exp = extract_mass(AssembledGreen(g_plus), problem.pole,
                           profile=None if cnc is None else cnc(t))
        rows.append({
            "t": float(t),
            "A_q": exp.A_q,
            "product": exp.A_q * 4.0 * t ** 2,
            "error": exp.error + g_plus.error_estimate,
            "solver_error": g_plus.error_estimate,
        })
    return rows


def parametrix_residual(t: float, with_cnc: bool = True) -> dict:
    """200 samples of L_gbar(rho^-2) on the punctured ball rho < rho(t/2) of
    the football's round chart.

    Uses the exact radial reduction about the pole: within distance t/2 the
    (CNC-modified) suite metric is rotationally symmetric about the pole, so
    with m(rho) = e^{f/2} w and the conformal scalar curvature the residual

        L(rho^-2) = (12/rho^3) * 3 (m'/m - 1/rho) + R_gbar/rho^2

    is a closed-form radial function.  Returns samples, the sup, and the two
    terms separately.
    """
    svals = np.linspace(t * 1e-3, 0.5 * t * (1 - 1e-9), 200)
    prof = cnc_profile(t)
    f, fp, fpp = prof.jet(svals) if with_cnc else [np.zeros_like(svals)] * 3
    # exact rho: the volume term lives on m(rho) = rho + O(rho^5)
    rho = prof.radius(svals) if with_cnc else svals
    w = np.sin(svals)  # the round chart's warp; its scalar curvature is 12
    wp = np.cos(svals)
    R0 = np.full_like(svals, 12.0)
    m = np.exp(0.5 * f) * w
    dm_ds = np.exp(0.5 * f) * (0.5 * fp * w + wp)
    dm_drho = dm_ds * np.exp(-0.5 * f)
    lap_f = fpp + 3.0 * (wp / w) * fp
    R_bar = np.exp(-f) * (R0 - 3.0 * lap_f - 1.5 * fp * fp)
    term_vol = (12.0 / rho ** 3) * 3.0 * (dm_drho / m - 1.0 / rho)
    term_scal = R_bar / rho ** 2
    total = term_vol + term_scal
    return {
        "rho": rho,
        "volume_term": term_vol,
        "curvature_term": term_scal,
        "total": total,
        "sup": float(np.max(np.abs(total))),
        "sup_curvature_term_no_cnc": float(np.max(np.abs(R0 / rho ** 2))),
    }


def parametrix_sweep(t_list) -> dict:
    """Fitted exponent of sup |L_gbar(rho^-2)| against t on the round chart."""
    t_list = np.asarray(t_list, dtype=float)
    sups = np.array([parametrix_residual(float(t))["sup"] for t in t_list])
    slope, intercept = np.polyfit(np.log(t_list), np.log(sups), 1)
    return {"t": t_list, "sup": sups, "exponent": float(slope),
            "constant": float(math.exp(intercept))}
