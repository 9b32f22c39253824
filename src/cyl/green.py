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
Gbar_x = e^{-f/2} Gtilde_x (Lee & Parker), and on a gbar sphere about the
pole the factor is one number.

Closed forms (images for the flat ball, stereographic conformal images for
the round ball, the global football kernel) are kept as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cyl.constants import bubble
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
]


# ----------------------------------------------------------------------------
# radial charts
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialChart:
    """Warped chart dr^2 + w(r)^2 h0 about the origin with scalar curvature
    R(r), fundamental kernel of L, radial extent, whether its origin is a
    cone tip and its geodesic spheres; the geometry the mode solver, the
    mass extraction and the DOUBLE leg read, each from its own field."""

    kind: str            # the chart's name, 'flat' or 'round', for messages
    w: object            # r -> warp
    wp: object           # r -> w'
    scal: object         # r -> scalar curvature
    dist: object         # (r1, r2, cos gamma) -> distance between chart points
    kernel: object       # distance -> fundamental kernel, L k = 24 pi^2 delta
    extent: float        # the largest chart radius: inf flat, pi round
    tip: bool            # the origin is a cone tip, where no pole may sit
    sphere: object       # (pole, dirs) -> (s -> points at distance s along dirs)

    @staticmethod
    def flat() -> "RadialChart":
        def dist(r1, r2, c):
            return np.sqrt(np.maximum(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * c, 0.0))

        return RadialChart("flat", lambda r: r, lambda r: np.ones_like(r),
                           lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                           dist, lambda d: 1.0 / np.asarray(d, dtype=float) ** 2,
                           math.inf, False,
                           lambda pole, dirs: lambda s: pole[None, :] + s * dirs)

    @staticmethod
    def round() -> "RadialChart":
        def dist(r1, r2, c):
            arg = np.cos(r1) * np.cos(r2) + np.sin(r1) * np.sin(r2) * c
            return np.arccos(np.clip(arg, -1.0, 1.0))

        return RadialChart("round", np.sin, np.cos,
                           lambda r: np.full_like(np.asarray(r, dtype=float), 12.0),
                           dist, sphere_kernel, math.pi, True, _round_sphere)

    def mode_coupling_defect(self, samples) -> float:
        """Sup defect between a field's values and this chart's warped form
        at ``samples``, (x, value) pairs: the guard against non-radial fields."""
        worst = 0.0
        for x, value in samples:
            r = np.linalg.norm(x)
            c = float(self.w(r)) ** 2 / r ** 2
            P = np.outer(x, x) / r ** 2
            model = P + c * (np.eye(4) - P)
            worst = max(worst, float(np.max(np.abs(value - model))))
        return worst


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
        out = np.zeros_like(head)
        safe = nh > 0
        out[safe] = (theta[safe] / nh[safe])[:, None] * head[safe]
        return out

    return points


def chart_for_field(field: ChartMetricField, delta: float) -> RadialChart:
    """The flat or round chart that the field, evaluated once at 8 seeded
    points of the ball of radius delta, matches best, to COUPLING_TOL."""
    rng = np.random.default_rng(0)
    draws = [(rng.normal(size=4), rng.uniform(0.05, 0.95)) for _ in range(8)]
    xs = [x * (u * delta / np.linalg.norm(x)) for x, u in draws]
    samples = [(x, field.value(x)) for x in xs]
    charts = (RadialChart.flat(), RadialChart.round())
    defects = [chart.mode_coupling_defect(samples) for chart in charts]
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
        c2 = cur = 2.0 * c
        yield cur
        for _ in range(2, lmax + 1):
            prev, cur = cur, c2 * cur - prev
            yield cur


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
    # LAPACK's dgtsv, the package's one gtsv call (modes and spline slopes):
    # what scipy.linalg.solve_banded((1, 1), ...) calls, minus its per-call
    # validation, which costs five times the solve at n = 200
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


class NotAKnotSpline:
    """The not-a-knot cubic spline (de Boor 1978, ch. IV) through the values y
    at the nodes x, y of shape (n,) or (k, n) with one row per component,
    built and evaluated bit for bit as SciPy's CubicSpline(x, y.T,
    extrapolate=True); its values have one row per component too."""

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        dx = np.diff(x)
        if len(x) < 4 or not (np.isfinite(x).all() and np.all(dx > 0)):
            raise ValueError("need 4 or more finite, strictly increasing nodes")
        m = np.diff(y) / dx  # the chord slopes
        # SciPy squares the end gaps by pow() for 1-d y, by x*x for 2-d y
        h0, h1 = (dx[0], dx[-1]) if y.ndim == 1 else (dx[:1], dx[-1:])
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        ab = np.zeros((3, len(x)))
        ab[0, 2:], ab[1, 1:-1], ab[2, :-2] = dx[:-1], 2 * (dx[:-1] + dx[1:]), dx[1:]
        ab[1, 0], ab[0, 1], ab[1, -1], ab[2, -2] = dx[1], d0, dx[-2], d1
        b = np.empty(y.shape)
        b[..., 1:-1] = 3 * (dx[1:] * m[..., :-1] + dx[:-1] * m[..., 1:])
        b[..., 0] = ((h0 + 2 * d0) * dx[1] * m[..., 0] + h0 ** 2 * m[..., 1]) / d0
        b[..., -1] = (h1 ** 2 * m[..., -2] + (2 * d1 + h1) * dx[-2] * m[..., -1]) / d1
        s = _solve_tridiagonal(ab, b.T).T  # the slopes at the nodes
        t = (s[..., :-1] + s[..., 1:] - 2 * m) / dx
        self.x = x
        self.c = np.stack((t / dx, (m - s[..., :-1]) / dx - t, s[..., :-1],
                           y[..., :-1]))

    def __call__(self, xn) -> np.ndarray:
        # PPoly's interval and order, ((c3 + c2 s) + c1 s^2) + c0 (s^2 s), in
        # place on one gather; i is in range, so "clip" skips a bounds check
        i = np.searchsorted(self.x[1:-1], xn, "right")
        s = xn - self.x[i]
        c0, c1, c2, c3 = np.take(self.c, i, axis=-1, mode="clip")
        c2 *= s
        c2 += c3
        c1 *= s * s
        c2 += c1
        c0 *= s * s * s
        c2 += c0
        return c2


def _solve_modes(chart: RadialChart, bmodes, mesh: np.ndarray) -> np.ndarray:
    """Nodal values of every mode l = 0..lmax on the mesh, one row per mode:
    the homogeneous mode BVP with Dirichlet value bmodes[l] at the last node.
    One solve of the modes' bands laid end to end, each band's unused corners
    the zero couplings: these never pivot, so each mode keeps its own bits."""
    n, L = len(mesh), len(bmodes)
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
    ab = np.tile(stencil, L)
    ll = np.arange(L, dtype=float)[:, None]
    ab[1].reshape(L, n)[:, 1:-1] = diag0 + 6.0 * (ll * (ll + 2.0)) / w2 + R[1:-1]
    # scalar powers: NumPy's vector power rounds unlike pow()
    ab[0, 1::n] = [-(r[0] / r[1]) ** l for l in range(L)]
    rhs = np.zeros((L, n))
    rhs[:, -1] = bmodes
    return _solve_tridiagonal(ab, rhs.ravel()).reshape(L, n)


def _default_mesh(delta: float, t: float) -> np.ndarray:
    n_base = 420
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
    mesh = mesh[mesh > 0.0]
    # the stencil divides by the gaps: a node within 1e-12 r of the next goes
    return mesh[np.append(np.diff(mesh) > 1e-12 * mesh[1:], True)]


@dataclass
class GreenProblem:
    """A Dirichlet problem L G = 24 pi^2 delta_x on the lifted ball; lmax
    is the mode solver's angular resolution, for every solve."""

    field: ChartMetricField
    pole: np.ndarray
    delta: float
    lmax: int = 28

    def __post_init__(self):
        self.pole = np.asarray(self.pole, dtype=float)
        t = float(np.linalg.norm(self.pole))
        self.chart = chart_for_field(self.field, self.delta)
        # the pole must avoid the cone tip; a centered pole is only meaningful
        # for the flat ball, where there is no tip
        tip = self.chart.tip
        if not (1e-300 if tip else 0.0) <= t < self.delta / 4.0 + 1e-12:
            raise ValueError(f"pole must satisfy {'0 <' if tip else '0 <='} "
                             f"|x| < delta/4 on the {self.chart.kind} chart")


def _axis(pole) -> np.ndarray:
    """Unit vector along the pole; e1 for the centred pole."""
    t = float(np.linalg.norm(pole))
    return pole / t if t > 0.0 else np.array([1.0, 0.0, 0.0, 0.0])


def _polar(pts, axis):
    """The radii of the points and the cosines of their angles against the
    unit axis, each row's from that row alone."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    # einsum sums each row in one loop; a one-row pts @ axis is a dot
    # product that rounds unlike the multi-row mat-vec
    c = np.divide(np.einsum("ij,j->i", pts, axis), r, out=np.zeros_like(r),
                  where=r > 0.0)
    return r, np.clip(c, -1.0, 1.0, out=c)


class ZonalModeSum:
    """u(y) = sum_l u_l(|y|) U_l(cos gamma), gamma the angle between y and the
    axis, with the modes u_l the components of one vector-valued cubic spline
    through their nodal values on the radial mesh."""

    def __init__(self, axis, mesh: np.ndarray, modes):
        self.axis = axis
        self.lmax = len(modes) - 1
        self.spline = NotAKnotSpline(mesh, modes)

    def at(self, r, c) -> np.ndarray:
        # the spline runs once per distinct radius, and each mode's values
        # are one contiguous row, gathered back to the points
        ru, inv = np.unique(r, return_inverse=True)
        out = np.zeros(len(r))
        for V_l, U_l in zip(self.spline(ru), _chebyshev_rows(self.lmax, c)):
            out += V_l[inv] * U_l
        return out

    def value(self, pts) -> np.ndarray:
        r, c = _polar(pts, self.axis)
        return self.at(r, c)


class GreenEvaluator:
    """Callable Green function, the chart's kernel plus the mode sum;
    immutable after assembly."""

    def __init__(self, chart: RadialChart, pole, delta: float,
                 modes: ZonalModeSum, error_estimate: float):
        self.chart = chart
        self.pole = np.asarray(pole, dtype=float)
        self.t = float(np.linalg.norm(self.pole))
        self.delta = delta
        self.modes = modes
        self.error_estimate = error_estimate

    def boundary_trace_defect(self) -> float:
        gam = np.linspace(0.0, math.pi, 64)
        pts = np.stack([self.delta * np.cos(gam), self.delta * np.sin(gam),
                        np.zeros(64), np.zeros(64)], axis=1)
        return float(np.max(np.abs(self.value(pts))))

    def value(self, pts) -> np.ndarray:
        r, c = _polar(pts, self.modes.axis)
        return self.chart.kernel(self.chart.dist(r, self.t, c)) \
            + self.modes.at(r, c)


def solve_dirichlet_green(problem: GreenProblem) -> GreenEvaluator:
    """Solve L G = 24 pi^2 delta_x, G = 0 on the chart sphere of radius delta.

    Splits G = zeta + phi with zeta the chart's fundamental kernel and
    solves the remainder mode-by-mode: phi is the L-harmonic extension of
    -zeta from the boundary.
    """
    t = float(np.linalg.norm(problem.pole))
    chart = problem.chart
    delta = problem.delta
    bmodes = zonal_project(
        lambda gamma: -chart.kernel(chart.dist(np.full_like(gamma, delta), t,
                                               np.cos(gamma))),
        problem.lmax)
    mesh = _default_mesh(delta, t)
    # every other node and the last: the fine solution there is a gather
    coarse = np.unique(np.append(np.arange(0, len(mesh), 2), len(mesh) - 1))
    fine = _solve_modes(chart, bmodes, mesh)
    gap = np.abs(fine[:, coarse] - _solve_modes(chart, bmodes, mesh[coarse]))
    err = sum(float(g) * (l + 1) for l, g in enumerate(gap.max(axis=1)))
    # truncation part of the error: magnitude of the last boundary mode
    err += abs(float(bmodes[-1])) * (problem.lmax + 1)
    return GreenEvaluator(chart, problem.pole, delta,
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
    mesh = _default_mesh(delta, 0.0)
    modes = _solve_modes(chart, bmodes, mesh)
    return ZonalModeSum(_axis(np.zeros(4)), mesh, modes)


# ----------------------------------------------------------------------------
# equivariant assembly
# ----------------------------------------------------------------------------

class AssembledGreen:
    """Equivariant quotient Green function through the double cover:
    G_q o sigma_P = G_x + G_{-x} + H_x, with G_{-x}(y) = G_x(-y) by the
    equivariance of the suite metrics."""

    def __init__(self, g_plus: GreenEvaluator, harmonic=None):
        self.g_plus = g_plus
        self.chart = g_plus.chart
        self.harmonic = harmonic

    def value(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self.g_plus.value(pts) + self.g_plus.value(-pts)
        if self.harmonic is not None:
            out = out + self.harmonic.value(pts)
        return out


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
    """
    pole = np.asarray(pole, dtype=float)
    t = float(np.linalg.norm(pole))
    if eps0 is None:
        eps0 = t / 8.0
    radii = eps0 * 0.5 ** np.arange(4)
    s, factor = radii, np.ones(4)
    if profile is not None:
        if not eps0 <= 0.49 * t:
            raise ValueError(f"a CNC profile needs eps0 <= 0.49 t, got {eps0!r}")
        s = profile.radius_inverse(radii)
        factor = np.exp(-0.5 * profile.value(s))
    dirs, weights = _sym_directions()
    # orthonormal tangent completion: rotate e1 onto the pole axis
    axis = _axis(pole)
    sphere = evaluator.chart.sphere(
        pole, dirs @ np.vstack([axis, tangent_frame(axis)]).T)
    means = np.array([
        float(np.sum(weights * (evaluator.value(sphere(float(s_k))) * f_k
                                - 1.0 / eps ** 2)))
        for eps, s_k, f_k in zip(radii, s, factor)])
    design = np.stack([np.ones(4), radii, radii ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, means, rcond=None)
    fitted = design @ coef
    err = float(np.max(np.abs(means - fitted))) + abs(means[-1] - coef[0]) * 0.5
    return GreenExpansion(t=t, A_q=float(coef[0]), error=err)


# ----------------------------------------------------------------------------
# sweeps and the parametrix law
# ----------------------------------------------------------------------------

def mass_divergence_sweep(model: str, t_grid, delta: float) -> list:
    """Per t: one Dirichlet solve, its equivariant assembly and the mass on
    gbar spheres, with the CNC factor on the football.  Returns rows of
    dicts with the A_q * 4 t^2 column; each row's error adds the solver's
    error estimate to the extraction's."""
    if model == "flat-cone":
        field, cnc = FlatField(), None
    elif model == "football":
        field, cnc = WarpedRadialField(round_profile()), cnc_profile
    else:
        raise ValueError("model must be 'flat-cone' or 'football'")
    if not all(0.0 < t < math.inf for t in t_grid):
        raise ValueError("every t must be finite and > 0")
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        pole = np.array([t, 0.0, 0.0, 0.0])
        g_plus = solve_dirichlet_green(GreenProblem(field, pole, delta))
        exp = extract_mass(AssembledGreen(g_plus), pole,
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
