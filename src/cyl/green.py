"""Dirichlet Green functions of the conformal Laplacian on lifted balls,
equivariant assembly on the Z2-quotient, and mass extraction.

Normalization: L g = -6 Delta_g + R_g and  L G_x = 24 pi^2 delta_x  (the
4-dimensional fundamental constant: -Delta |y|^-2 = 4 pi^2 delta in R^4).

The suite's lifted metrics (flat cone, football lift) are radially symmetric
about the chart origin.  With G = zeta + phi and zeta the exact fundamental
kernel of the chart (|y - x|^-2 flat, 1/(4 sin^2(d/2)) round), the
L-harmonic remainder phi decouples into zonal S^3 modes: expanded in
Chebyshev-U zonal harmonics U_l(cos gamma) about the pole axis, each mode
solves the two-point BVP

    -6 [u'' + 3 (w'/w) u' - l(l+2) u / w^2] + R(r) u = 0

on (0, delta] with u ~ r^l at the origin and the l-th mode of -zeta as its
Dirichlet value at delta.

Conformal normal coordinates enter as an exact transformation: for
gbar = e^f gtilde with f(pole) = 0, the Green functions obey
Gbar_x = e^{-f/2} Gtilde_x, which preserves the radial decoupling.

Closed forms (images for the flat ball, stereographic conformal images for
the round ball, the global football kernel) are kept as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cyl.constants import sobolev_constants
from cyl.geometry.cnc import cnc_profile
from cyl.geometry.fields import (ChartMetricField, FlatField, WarpedRadialField,
                                 round_profile)
from cyl.geometry.football import chart_to_sphere
from cyl.geometry.links import tangent_frame
from cyl.quadrature import _sphere3_nodes, gauss_legendre

KAPPA = 24.0 * math.pi ** 2  # 4 a pi^2 with a = 6
COUPLING_TOL = 1e-9  # largest mode-coupling defect the solver accepts

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
    "cnc_radial_factor",
]


# ----------------------------------------------------------------------------
# radial charts
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialChart:
    """Warped chart dr^2 + w(r)^2 h0 about the origin with scalar curvature
    R(r); the geometry the mode solver understands."""

    kind: str            # 'flat' or 'round'
    w: object            # r -> warp
    wp: object           # r -> w'
    scal: object         # r -> scalar curvature
    dist: object         # (r1, r2, cos gamma) -> distance between chart points

    @staticmethod
    def flat() -> "RadialChart":
        def dist(r1, r2, c):
            return np.sqrt(np.maximum(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * c, 0.0))

        return RadialChart("flat", lambda r: r, lambda r: np.ones_like(r),
                           lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                           dist)

    @staticmethod
    def round() -> "RadialChart":
        def dist(r1, r2, c):
            arg = np.cos(r1) * np.cos(r2) + np.sin(r1) * np.sin(r2) * c
            return np.arccos(np.clip(arg, -1.0, 1.0))

        return RadialChart("round", np.sin, np.cos,
                           lambda r: np.full_like(np.asarray(r, dtype=float), 12.0),
                           dist)

    def mode_coupling_defect(self, field: ChartMetricField,
                             delta: float) -> float:
        """Sup defect between the field and this chart's warped form at 8
        seeded points; the guard against silently feeding a non-radial field
        to the solver."""
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(8):
            x = rng.normal(size=4)
            x *= rng.uniform(0.05, 0.95) * delta / np.linalg.norm(x)
            r = np.linalg.norm(x)
            c = float(self.w(r)) ** 2 / r ** 2
            P = np.outer(x, x) / r ** 2
            model = P + c * (np.eye(4) - P)
            worst = max(worst, float(np.max(np.abs(field.value(x) - model))))
        return worst


def chart_for_field(field: ChartMetricField, delta: float) -> RadialChart:
    """The flat or round chart, whichever the field matches better on the
    ball of radius delta; the field must match it to COUPLING_TOL."""
    charts = (RadialChart.flat(), RadialChart.round())
    defects = [chart.mode_coupling_defect(field, delta) for chart in charts]
    best = int(np.argmin(defects))
    if defects[best] > COUPLING_TOL:
        raise ValueError("no radial chart available for this field; the mode "
                         "solver requires a radially symmetric suite metric "
                         f"(defect={defects[best]:g})")
    return charts[best]


# ----------------------------------------------------------------------------
# zonal harmonics
# ----------------------------------------------------------------------------

def chebyshev_u(lmax: int, c) -> np.ndarray:
    """U_l(c) for l = 0..lmax, shape (lmax+1, len(c)); the S^3 zonal
    harmonics with eigenvalue l(l+2) and U_l(1) = l + 1."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return np.array(list(_chebyshev_rows(lmax, c)))


def _chebyshev_rows(lmax: int, c: np.ndarray):
    """Yields U_0(c), ..., U_lmax(c) by the three-term recurrence, holding
    two rows at a time."""
    prev = np.ones_like(c)
    yield prev
    if lmax >= 1:
        cur = 2.0 * c
        yield cur
        for _ in range(2, lmax + 1):
            prev, cur = cur, 2.0 * c * cur - prev
            yield cur


def zonal_project(fn, lmax: int, n_nodes: int = None) -> np.ndarray:
    """Coefficients f_l = (2/pi) int_0^pi fn(gamma) U_l(cos gamma) sin^2 dgamma."""
    if n_nodes is None:
        n_nodes = 2 * lmax + 32
    x, wq = gauss_legendre(n_nodes)
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

    def __init__(self, pole):
        self.pole = np.asarray(pole, dtype=float)

    def value(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        P = chart_to_sphere(pts)
        a = chart_to_sphere(self.pole)
        b = chart_to_sphere(-self.pole)
        da = np.arccos(np.clip(P @ a, -1.0, 1.0))
        db = np.arccos(np.clip(P @ b, -1.0, 1.0))
        return sphere_kernel(da) + sphere_kernel(db)


# ----------------------------------------------------------------------------
# mode solver
# ----------------------------------------------------------------------------

def _solve_tridiagonal(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with A x = rhs for A in the (1, 1) banded form of ``solve_banded``,
    with its guarantees: ValueError on non-finite input, LinAlgError when
    the matrix is singular."""
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    # LAPACK's tridiagonal solver in double precision: the routine
    # scipy.linalg.solve_banded((1, 1), ...) dispatches to, called without
    # its per-call validation, which costs five times the solve at n = 200
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def _solve_modes(chart: RadialChart, bmodes, mesh: np.ndarray) -> list:
    """Nodal values of every mode l = 0..lmax on the mesh: the homogeneous
    mode BVP with Dirichlet value bmodes[l] at the last node.  The
    l-independent stencil is built once per mesh."""
    n = len(mesh)
    r = mesh
    w = np.asarray(chart.w(r), dtype=float)
    wp = np.asarray(chart.wp(r), dtype=float)
    R = np.asarray(chart.scal(r), dtype=float)
    # interior rows: -6[u'' + 3(w'/w)u' - lam u/w^2] + R u = 0
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    c_m = 2.0 / (hm * (hm + hp))
    c_0 = -2.0 / (hm * hp)
    c_p = 2.0 / (hp * (hm + hp))
    d_m = -hp / (hm * (hm + hp))
    d_0 = (hp - hm) / (hm * hp)
    d_p = hm / (hp * (hm + hp))
    p1 = 3.0 * wp[1:-1] / w[1:-1]
    stencil = np.zeros((3, n))
    stencil[0, 2:] = -6.0 * (c_p + p1 * d_p)
    stencil[2, 0:-2] = -6.0 * (c_m + p1 * d_m)
    stencil[1, 0] = 1.0  # origin regularity: u(r0) = (r0/r1)^l u(r1)
    stencil[1, -1] = 1.0  # Dirichlet at delta
    diag0 = -6.0 * (c_0 + p1 * d_0)
    w2 = w[1:-1] ** 2
    modes = []
    for l, bval in enumerate(bmodes):
        ab = stencil.copy()
        ab[1, 1:-1] = diag0 + 6.0 * float(l * (l + 2)) / w2 + R[1:-1]
        ab[0, 1] = -(r[0] / r[1]) ** l
        rhs = np.zeros(n)
        rhs[-1] = bval
        modes.append(_solve_tridiagonal(ab, rhs))
    return modes


def _default_mesh(delta: float, t: float, n_base: int) -> np.ndarray:
    pieces = [
        np.geomspace(delta * 1e-8, delta, n_base // 2),
        np.linspace(0.0, delta, n_base + 1)[1:],
    ]
    if 0.0 < t < delta:
        local = t * np.geomspace(1e-3, 0.6, n_base // 4)
        pieces.append(np.clip(t + local, 0.0, delta))
        pieces.append(np.clip(t - local, delta * 1e-8, delta))
        pieces.append(np.array([t]))
    mesh = np.unique(np.concatenate(pieces))
    return mesh[mesh > 0.0]


@dataclass
class GreenProblem:
    """A Dirichlet problem L G = 24 pi^2 delta_x on the lifted ball; lmax
    and mesh_size are the mode solver's resolution, for every solve."""

    field: ChartMetricField
    pole: np.ndarray
    delta: float
    lmax: int = 28
    mesh_size: int = 420

    def __post_init__(self):
        self.pole = np.asarray(self.pole, dtype=float)
        t = float(np.linalg.norm(self.pole))
        self.chart = chart_for_field(self.field, self.delta)
        # the pole must avoid the cone tip; a centered pole is only meaningful
        # for the flat ball, where there is no tip
        t_lo = 0.0 if self.chart.kind == "flat" else 1e-300
        if not t_lo <= t < self.delta / 4.0 + 1e-12:
            raise ValueError("pole must satisfy 0 < |x| < delta/4")
        if t == 0.0 and self.chart.kind != "flat":
            raise ValueError("pole must be distinct from the cone tip")


def _axis(pole) -> np.ndarray:
    """Unit vector along the pole; e1 for the centred pole."""
    t = float(np.linalg.norm(pole))
    return pole / t if t > 0.0 else np.array([1.0, 0.0, 0.0, 0.0])


def _polar(pts, axis):
    """Points as an (m, 4) array, their radii and the cosines of their angles
    against the unit axis."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    c = np.zeros_like(r)
    safe = r > 0.0
    c[safe] = (pts[safe] @ axis) / r[safe]
    return pts, r, np.clip(c, -1.0, 1.0)


class ZonalModeSum:
    """u(y) = sum_l u_l(|y|) U_l(cos gamma), gamma the angle between y and the
    axis, with the modes u_l the components of one vector-valued cubic spline
    through their nodal values on the radial mesh."""

    def __init__(self, axis, mesh: np.ndarray, modes):
        self.axis = axis
        self.lmax = len(modes) - 1
        from scipy.interpolate import CubicSpline
        self.spline = CubicSpline(mesh, np.stack(modes, axis=1), extrapolate=True)

    def at(self, r, c) -> np.ndarray:
        V = self.spline(r)
        out = np.zeros(len(r))
        for l, U_l in enumerate(_chebyshev_rows(self.lmax, c)):
            out += V[:, l] * U_l
        return out

    def value(self, pts) -> np.ndarray:
        _, r, c = _polar(pts, self.axis)
        return self.at(r, c)


class GreenEvaluator:
    """Callable Green function zeta + mode sum, immutable after assembly."""

    def __init__(self, chart: RadialChart, pole, delta: float, zeta,
                 modes: ZonalModeSum, error_estimate: float,
                 conformal_half=None):
        self.chart = chart
        self.pole = np.asarray(pole, dtype=float)
        self.t = float(np.linalg.norm(self.pole))
        self.delta = delta
        self.zeta = zeta
        self.modes = modes
        self.error_estimate = error_estimate
        self.conformal_half = conformal_half  # y -> f(y)/2 for gbar = e^f g

    def boundary_trace_defect(self, n: int = 64) -> float:
        gam = np.linspace(0.0, math.pi, n)
        pts = np.stack([self.delta * np.cos(gam), self.delta * np.sin(gam),
                        np.zeros(n), np.zeros(n)], axis=1)
        return float(np.max(np.abs(self.value(pts))))

    def value(self, pts) -> np.ndarray:
        pts, r, c = _polar(pts, self.modes.axis)
        d = self.chart.dist(r, self.t, c)
        vals = self.zeta(d) + self.modes.at(r, c)
        if self.conformal_half is not None:
            vals = vals * np.exp(-self.conformal_half(pts))
        return vals


def _fundamental_zeta(chart: RadialChart):
    if chart.kind == "flat":
        return lambda d: 1.0 / np.asarray(d, dtype=float) ** 2
    if chart.kind == "round":
        return sphere_kernel
    raise ValueError("no fundamental kernel for this chart")


def solve_dirichlet_green(problem: GreenProblem) -> GreenEvaluator:
    """Solve L G = 24 pi^2 delta_x, G = 0 on the chart sphere of radius delta.

    Splits G = zeta + phi with zeta the chart's fundamental kernel and
    solves the remainder mode-by-mode: phi is the L-harmonic extension of
    -zeta from the boundary.
    """
    t = float(np.linalg.norm(problem.pole))
    chart = problem.chart
    delta = problem.delta
    zeta = _fundamental_zeta(chart)
    bmodes = zonal_project(
        lambda gamma: -zeta(chart.dist(np.full_like(gamma, delta), t,
                                       np.cos(gamma))),
        problem.lmax)
    mesh = _default_mesh(delta, t, problem.mesh_size)
    coarse = mesh[::2] if mesh[-1] == mesh[::2][-1] else np.append(mesh[::2], mesh[-1])
    fine = _solve_modes(chart, bmodes, mesh)
    err = 0.0
    for l, (u_fine, u_coarse) in enumerate(
            zip(fine, _solve_modes(chart, bmodes, coarse))):
        interp = np.interp(coarse, mesh, u_fine)
        err += float(np.max(np.abs(interp - u_coarse))) * (l + 1)
    # truncation part of the error: magnitude of the last boundary mode
    err += abs(float(bmodes[-1])) * (problem.lmax + 1)
    return GreenEvaluator(chart, problem.pole, delta, zeta,
                          ZonalModeSum(_axis(problem.pole), mesh, fine), err)


def solve_harmonic_extension(field: ChartMetricField, delta: float,
                             datum) -> ZonalModeSum:
    """Solve L H = 0 in the ball with zonal Dirichlet datum(gamma) on the
    boundary, gamma measured against e1, at the resolution of GreenProblem;
    equivariant data must carry even modes only."""
    chart = chart_for_field(field, delta)
    bmodes = zonal_project(lambda g: np.asarray(datum(g), dtype=float),
                           GreenProblem.lmax)
    odd_power = float(np.sum(np.abs(bmodes[1::2])))
    if odd_power > 1e-8 * (1.0 + float(np.sum(np.abs(bmodes)))):
        raise ValueError("equivariant boundary datum must be antipodally even")
    mesh = _default_mesh(delta, 0.0, GreenProblem.mesh_size)
    modes = _solve_modes(chart, bmodes, mesh)
    return ZonalModeSum(_axis(np.zeros(4)), mesh, modes)


# ----------------------------------------------------------------------------
# CNC wrap and assembly
# ----------------------------------------------------------------------------

def cnc_radial_factor(chart: RadialChart, pole):
    """The equivariant CNC conformal exponent f(y) for the suite charts.

    Flat chart: identically zero.  Round chart: phi_t(d) d^2/2 around the pole
    plus the mirror branch around -pole (the factor is antipodally
    symmetrized so gbar projects to the quotient).  Returns f(pts) and the
    radial profile fr(d).
    """
    pole = np.asarray(pole, dtype=float)
    t = float(np.linalg.norm(pole))
    if chart.kind == "flat":
        zero = lambda pts: np.zeros(len(np.atleast_2d(pts)))
        return zero, lambda d: np.zeros_like(np.asarray(d, dtype=float))
    fr = cnc_profile(t).value
    axis = _axis(pole)

    def f(pts):
        _, r, c = _polar(pts, axis)
        return fr(chart.dist(r, t, c)) + fr(chart.dist(r, t, -c))

    return f, fr


def conformal_wrap(ev: GreenEvaluator, f_callable) -> GreenEvaluator:
    """Gbar = e^{-f/2} G for gbar = e^f g; exact since f(pole) = 0."""
    return GreenEvaluator(ev.chart, ev.pole, ev.delta, ev.zeta, ev.modes,
                          ev.error_estimate,
                          conformal_half=lambda pts: 0.5 * f_callable(pts))


class AssembledGreen:
    """Equivariant quotient Green function through the double cover:
    G_q o sigma_P = G_x + G_{-x} + H_x."""

    def __init__(self, g_plus, g_minus, harmonic=None):
        self.g_plus = g_plus
        self.g_minus = g_minus
        self.harmonic = harmonic

    def value(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self.g_plus.value(pts) + self.g_minus.value(pts)
        if self.harmonic is not None:
            out = out + self.harmonic.value(pts)
        return out

    def symmetry_defect(self, pts) -> float:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return float(np.max(np.abs(self.value(pts) - self.value(-pts))))


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
    return (1.0 / tau ** 2 + A_q) * (1.0 + tau ** 2 / epsilon ** 2) \
        / (sobolev_constants().c4 / epsilon)


def _gbar_spheres(evaluator, pole, radii, dirs, chart, conformal_fr, smax):
    """Yields (eps, points, values of the evaluator) on the gbar-geodesic
    spheres of radius eps around the pole, one point per unit direction
    (dirs are taken with e1 along the pole); the gbar radius is inverted on
    [0, smax] through the radial CNC profile conformal_fr, if given."""
    if chart is None:
        chart = getattr(evaluator, "chart", RadialChart.flat())
    if conformal_fr is None:
        s_of_rho = lambda rho: rho
    else:
        _, s_of_rho = _gbar_radius(conformal_fr, np.linspace(0.0, smax, 400))
    # orthonormal tangent completion: rotate e1 onto the pole axis
    axis = _axis(pole)
    tangents = dirs @ np.vstack([axis, tangent_frame(axis)]).T
    sphere = _exp_sphere(chart, pole, tangents)
    for eps in np.asarray(radii, dtype=float):
        pts = sphere(float(s_of_rho(eps)))
        yield eps, pts, evaluator.value(pts)


def _cumulative_gl(f, sgrid: np.ndarray, order: int = 8) -> np.ndarray:
    """Cumulative integral of f from sgrid[0] along sgrid, per-interval
    Gauss-Legendre; keeps delicate cancellations intact for smooth f."""
    x, w = gauss_legendre(order)
    a = sgrid[:-1]
    b = sgrid[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    increments = half * (vals @ w)
    return np.concatenate([[0.0], np.cumsum(increments)])


def _gbar_radius(f, sgrid: np.ndarray):
    """rho(s) = int_0^s e^{f/2}, the gbar = e^f g distance along a radial
    geodesic with CNC profile f(s), on sgrid (from 0), and its inverse
    s(rho) as a cubic spline."""
    from scipy.interpolate import CubicSpline
    rho = _cumulative_gl(lambda s: np.exp(0.5 * f(s)), sgrid)
    return rho, CubicSpline(rho, sgrid)


def _sym_directions(n: int = 6) -> np.ndarray:
    nodes, w = _sphere3_nodes(n, n, 2 * n)
    dirs = np.concatenate([nodes, -nodes])
    weights = np.concatenate([w, w])
    return dirs, weights / np.sum(weights)


def extract_mass(evaluator, pole, eps0: float = None,
                 chart: RadialChart = None, conformal_fr=None) -> GreenExpansion:
    """Mass by Richardson extrapolation of spherical means of G - |z|^-2.

    Sample spheres are gbar-geodesic spheres of radius eps_k = eps0 * 2^-k,
    k = 0..3, around the pole; with the radial CNC profile conformal_fr the
    gbar-radius rho(s) = int_0^s e^{f/2} is inverted exactly on the radial
    geodesics.
    Antipodal direction pairs kill the odd terms of the C^1 remainder.
    """
    pole = np.asarray(pole, dtype=float)
    t = float(np.linalg.norm(pole))
    if eps0 is None:
        eps0 = t / 8.0
    dirs, weights = _sym_directions()
    radii = eps0 * 0.5 ** np.arange(4)
    smax = min(2.0 * eps0, 0.49 * t) if t > 0 else 2.0 * eps0
    means = np.array([float(np.sum(weights * (vals - 1.0 / eps ** 2)))
                      for eps, _, vals in _gbar_spheres(
                          evaluator, pole, radii, dirs, chart, conformal_fr,
                          smax)])
    design = np.stack([np.ones(4), radii, radii ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, means, rcond=None)
    fitted = design @ coef
    err = float(np.max(np.abs(means - fitted))) + abs(means[-1] - coef[0]) * 0.5
    return GreenExpansion(t=t, A_q=float(coef[0]), error=err)


def _exp_sphere(chart: RadialChart, pole, dirs: np.ndarray):
    """s -> the chart points at geodesic distance s from the pole along the
    unit chart directions dirs, one row per direction.  On the round chart
    the directions are lifted to S^4 tangents at the pole once, for all s."""
    if chart.kind == "flat":
        return lambda s: pole[None, :] + s * dirs
    # round: ambient S^4 geodesics from the lifted pole
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
    n = len(dirs)

    def points(s: float) -> np.ndarray:
        q = math.cos(s) * p + math.sin(s) * dp
        # back to chart coordinates: polar angle about the north pole
        theta = np.arccos(np.clip(q[:, 4], -1.0, 1.0))
        head = q[:, :4]
        nh = np.linalg.norm(head, axis=1)
        out = np.zeros((n, 4))
        safe = nh > 0
        out[safe] = (theta[safe] / nh[safe])[:, None] * head[safe]
        return out

    return points


# ----------------------------------------------------------------------------
# sweeps and the parametrix law
# ----------------------------------------------------------------------------

def mass_divergence_sweep(model: str, t_grid, delta: float) -> list:
    """Full pipeline per t: CNC factor, Dirichlet solve at both poles,
    equivariant assembly, mass extraction.  Returns rows of dicts with the
    A_q * 4 t^2 column."""
    if model == "flat-cone":
        field = FlatField()
    elif model == "football":
        field = WarpedRadialField(round_profile())
    else:
        raise ValueError("model must be 'flat-cone' or 'football'")
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        pole = np.array([t, 0.0, 0.0, 0.0])
        problem = GreenProblem(field, pole, delta)
        g_plus = solve_dirichlet_green(problem)
        f_full, fr = cnc_radial_factor(problem.chart, pole)
        gbar_plus = conformal_wrap(g_plus, f_full)
        assembled = AssembledGreen(gbar_plus, _MirrorEval(gbar_plus))
        exp = extract_mass(assembled, pole, chart=problem.chart, conformal_fr=fr)
        rows.append({
            "t": float(t),
            "A_q": exp.A_q,
            "product": exp.A_q * 4.0 * t ** 2,
            "error": exp.error,
            "solver_error": g_plus.error_estimate,
        })
    return rows


class _MirrorEval:
    """G_{-x}(y) = G_x(-y) by the equivariance of the suite metrics."""

    def __init__(self, base):
        self.base = base

    def value(self, pts):
        return self.base.value(-np.atleast_2d(np.asarray(pts, dtype=float)))


def parametrix_residual(chart: RadialChart, t: float,
                        with_cnc: bool = True) -> dict:
    """200 samples of L_gbar(rho^-2) on the punctured ball rho < rho(t/2).

    Uses the exact radial reduction about the pole: within distance t/2 the
    (CNC-modified) suite metric is rotationally symmetric about the pole, so
    with m(rho) = e^{f/2} w and the conformal scalar curvature the residual

        L(rho^-2) = (12/rho^3) * 3 (m'/m - 1/rho) + R_gbar/rho^2

    is a closed-form radial function.  Returns samples, the sup, and the two
    terms separately.
    """
    svals = np.linspace(t * 1e-3, 0.5 * t * (1 - 1e-9), 200)
    if chart.kind == "flat":
        # m(rho) = rho and R = 0 identically: the residual vanishes
        zeros = np.zeros_like(svals)
        return {"rho": svals, "volume_term": zeros, "curvature_term": zeros,
                "total": zeros, "sup": 0.0,
                "sup_curvature_term_no_cnc": 0.0}
    if with_cnc:
        prof = cnc_profile(t)
        fprof = prof.value
        f, fp, fpp = prof.jet(svals)
    else:
        fprof = np.zeros_like
        f = fp = fpp = np.zeros_like(svals)
    w = np.asarray(chart.w(svals), dtype=float)
    wp = np.asarray(chart.wp(svals), dtype=float)
    R0 = np.asarray(chart.scal(svals), dtype=float)
    # rho(s) to machine accuracy: the volume term lives on the cancellation
    # m(rho) = rho + O(rho^5), so rho itself must be exact
    rho = _gbar_radius(fprof, np.concatenate([[0.0], svals]))[0][1:]
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


def parametrix_sweep(chart: RadialChart, t_list) -> dict:
    """Fitted exponent of sup |L_gbar(rho^-2)| against t."""
    t_list = np.asarray(t_list, dtype=float)
    sups = np.array([parametrix_residual(chart, float(t))["sup"]
                     for t in t_list])
    slope, intercept = np.polyfit(np.log(t_list), np.log(sups), 1)
    return {"t": t_list, "sup": sups, "exponent": float(slope),
            "constant": float(math.exp(intercept))}
