"""Test functions and the five-leg competitor path on the RP^3-football,
with Yamabe-quotient profiles and expansion-constant fits.

All competitor integrals reduce, by the axial symmetry of every leg, to 2-d
quadratures over angle rectangles on the lifted round sphere.  Quotient
values carry the exact 1/sqrt(2) lift factor: for equivariant test functions
Q on the football equals the lifted quotient divided by sqrt(2).

Legs and their lifted coordinates:

* DOUBLE  -- the cut-off symmetric bubble pair in chart polar (theta, psi),
  theta the chart radius (= distance from the lifted pole), psi the zonal
  angle against the center axis.
* GLUED   -- the bubble glued to the Green function in pole-centered polar
  (xi, eta) about the bubble center x = t*nu: every case boundary (the
  U/Green match at |z| = tau, the beta cutoff at 2 tau) is a coordinate
  circle xi = const, and the mirror copy contributes a factor 2 by
  equivariance.  Outside the glue balls the Green function is L-harmonic, so
  the far Dirichlet integral collapses to exact boundary fluxes.
* INTERP  -- the convex combination, same (xi, eta) reduction; the
  cross-free gradient term of its far region has no flux shortcut.

Each GLUED/INTERP quotient is one (xi, v) mesh over the glue zone and the far
region outside the mirror ball, its rows numerator and fourth power, plus one
1-d flux integral over the glue sphere.

The path and the fits reach the legs through one dispatch,
``evaluate_quotient``.
Each GLUED/INTERP integrand call builds one ``_LegBatch`` per zone with
points from the leg's ``GluedData``: it holds the per-point geometry and
evaluates the Green lift, energy density and measure from it.

The Green data comes from the closed-form global football kernel (the
equivariant sum of round-sphere kernels) conformally corrected by the CNC
factor; its mass is A_q(t) = 1/(4 sin^2 t) exactly, and ``glued_data`` takes
that closed form (the tests recompute it as the axis limit of the glued
Green lift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from cyl.config import PathConfig
from cyl.constants import exponents_admissible, sobolev_constants
from cyl.geometry.cnc import (CutoffProfile, RadialCNCProfile, cnc_profile,
                              cutoff_profile)
from cyl.green import (_gbar_radius, matching_constant, sphere_kernel,
                       sphere_kernel_slope)
from cyl.quadrature import (IntegralResult, QuadratureSpec, integrate_radial,
                            integrate_rect2d)

__all__ = [
    "D2",
    "TestFunctionDescriptor",
    "PathConfig",
    "PathProfile",
    "GluedData",
    "glued_data",
    "evaluate_quotient",
    "quotient_double",
    "quotient_interp",
    "build_path",
    "fit_expansion_A",
    "exponents_admissible",
]


# ----------------------------------------------------------------------------
# forward-mode scalars in two variables
# ----------------------------------------------------------------------------

class D2:
    """Vectorized value with partials against the two quadrature variables;
    v, dx and dy are kept as given, arrays of one shape."""

    __slots__ = ("v", "dx", "dy")

    def __init__(self, v, dx, dy):
        self.v = v
        self.dx = dx
        self.dy = dy

    @staticmethod
    def var_x(v):
        v = np.asarray(v, dtype=float)
        return D2(v, np.ones_like(v), np.zeros_like(v))

    @staticmethod
    def var_y(v):
        v = np.asarray(v, dtype=float)
        return D2(v, np.zeros_like(v), np.ones_like(v))

    @staticmethod
    def const(v):
        v = np.asarray(v, dtype=float)
        return D2(v, np.zeros_like(v), np.zeros_like(v))

    def _coerce(self, other):
        return other if isinstance(other, D2) else D2.const(other)

    def __add__(self, o):
        if isinstance(o, (float, int)):
            return D2(self.v + o, self.dx, self.dy)
        o = self._coerce(o)
        return D2(self.v + o.v, self.dx + o.dx, self.dy + o.dy)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._coerce(o)
        return D2(self.v - o.v, self.dx - o.dx, self.dy - o.dy)

    def __rsub__(self, o):
        return self._coerce(o).__sub__(self)

    def __mul__(self, o):
        if isinstance(o, (float, int)):
            return D2(self.v * o, self.dx * o, self.dy * o)
        o = self._coerce(o)
        return D2(self.v * o.v, self.dx * o.v + self.v * o.dx,
                  self.dy * o.v + self.v * o.dy)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._coerce(o)
        inv = 1.0 / o.v
        q = self.v * inv
        return D2(q, (self.dx - q * o.dx) * inv, (self.dy - q * o.dy) * inv)

    def __rtruediv__(self, o):
        return self._coerce(o).__truediv__(self)

    def __pow__(self, p):
        w = self.v ** (p - 1)
        return D2(self.v * w, p * w * self.dx, p * w * self.dy)

    def chain(self, value, slope):
        """g(self) from the values of g and g' at self.v."""
        return D2(value, slope * self.dx, slope * self.dy)

    def apply(self, f, fp):
        """Chain an elementwise function with known derivative."""
        return self.chain(f(self.v), fp(self.v))

    def sincos(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self.chain(s, c), self.chain(c, -s)

    def cos(self):
        return self.apply(np.cos, lambda v: -np.sin(v))

    def exp(self):
        return self.apply(np.exp, np.exp)


def _cutoff_d2(profile: CutoffProfile, s: D2) -> D2:
    return s.chain(profile.value(s.v), profile.deriv(s.v))


# ----------------------------------------------------------------------------
# descriptors
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionDescriptor:
    __test__ = False             # not a pytest test class despite the name
    variant: str                 # DOUBLE, GLUED, INTERP
    epsilon: float
    t: float = 0.0
    tau: float = 0.0
    lam: float = 0.0


@dataclass
class PathProfile:
    config: PathConfig
    mu: np.ndarray
    Q: np.ndarray
    Q_err: np.ndarray
    legs: list
    converged: np.ndarray  # per point: both integrals met their contract

    @property
    def max_Q(self) -> float:
        return float(np.max(self.Q))

    @property
    def argmax_mu(self) -> float:
        return float(self.mu[int(np.argmax(self.Q))])

    def endpoint_values(self):
        return float(self.Q[0]), float(self.Q[-1])


# ----------------------------------------------------------------------------
# bubble profiles in lifted coordinates
# ----------------------------------------------------------------------------

def _bubble(eps: float, r2: D2) -> D2:
    c4 = sobolev_constants().c4
    return (c4 / eps) / (1.0 + r2 * (1.0 / eps ** 2))


def _double_bubble_chart(eps: float, t: float, theta: D2, axial: D2,
                         chi: CutoffProfile | None) -> D2:
    """The bubble pair at -+t e1 at the chart point z of radius theta and
    axial coordinate z.e1, cut off by chi(theta) unless chi is None."""
    theta2 = theta * theta
    d2m = theta2 + t * t - 2.0 * t * axial
    d2p = theta2 + t * t + 2.0 * t * axial
    u = _bubble(eps, d2m) + _bubble(eps, d2p)
    if chi is not None:
        u = u * _cutoff_d2(chi, theta)
    return u


# ----------------------------------------------------------------------------
# DOUBLE leg
# ----------------------------------------------------------------------------

def quotient_double(eps: float, t: float, delta: float | None,
                    spec: QuadratureSpec, model: str = "football"):
    """Q of the (cut-off) double bubble: football chart or exact flat cone.

    Returns (Q, err, converged) on the quotient, lift factor included.
    ``delta = None`` drops the cutoff (complete flat cone)."""
    if model == "football":
        weight = lambda th: np.sin(th) ** 3
        scal = 12.0
        theta_max = 2.0 * delta if delta is not None else math.pi
    elif model == "flat":
        weight = lambda th: th ** 3
        scal = 0.0
        theta_max = 2.0 * delta if delta is not None else math.inf
    else:
        raise ValueError("model must be 'football' or 'flat'")
    chi = cutoff_profile(1.0, inner=delta, outer=2.0 * delta) if delta is not None else None

    def integrand(theta_v, psi_v):
        # numerator and fourth power of one bubble pair, one row each
        theta = D2.var_x(theta_v)
        psi = D2.var_y(psi_v)
        u = _double_bubble_chart(eps, t, theta, theta * psi.cos(), chi)
        sin_th = np.sin(theta_v) if model == "football" else theta_v
        grad2 = u.dx ** 2 + (u.dy / sin_th) ** 2
        return np.stack([6.0 * grad2 + scal * u.v ** 2, u.v ** 4]) \
            * (weight(theta_v) * 4.0 * math.pi * np.sin(psi_v) ** 2)

    # the point cores at (t, 0) and (t, pi) are eps wide in theta and
    # eps/t in psi; at t = 0 the pair sits at the origin, constant in psi
    width = eps / t if t > 0.0 else math.inf
    gspec = spec.with_grading(((t, 0.0), (eps, width)),
                              ((t, math.pi), (eps, width)))
    res = integrate_rect2d(integrand, gspec, (1e-12, theta_max), (0.0, math.pi))
    return _quotient_from(res[0], res[1])


def _quotient_from(nres: IntegralResult, dres: IntegralResult):
    """(Q, err, converged) of numerator and denominator integrals; converged
    only if both integrals met their error contract."""
    q_lift = nres.value / math.sqrt(dres.value)
    q = q_lift / math.sqrt(2.0)
    err = q * (nres.error_estimate / abs(nres.value)
               + 0.5 * dres.error_estimate / dres.value)
    return q, err, nres.converged and dres.converged


# ----------------------------------------------------------------------------
# glued data: the CNC-corrected global Green function at pole distance t
# ----------------------------------------------------------------------------

@dataclass
class GluedData:
    """Matching data of the glued leg at pole distance t; A_q is the exact
    mass 1/(4 sin^2 t) of the CNC-corrected Green lift."""

    eps: float
    t: float
    tau: float
    A_q: float
    nu: float
    s_tau: float          # chart radius with rho(s_tau) = tau
    s_2tau: float
    rho: object           # s -> gbar radial distance (spline)
    f1: RadialCNCProfile  # CNC exponent branch profile f1(s) and derivatives
    chi_tau: CutoffProfile


def glued_data(eps: float, t: float, tau: float) -> GluedData:
    """Matching data for the glued test function at pole distance t."""
    if not 0.0 < eps < tau < t:
        raise ValueError("need 0 < eps < tau < t")
    from scipy.interpolate import CubicSpline
    f1 = cnc_profile(t)
    smax = min(2.0 * t * 0.98, 0.5 * (t + math.pi))
    sgrid = np.linspace(0.0, smax, 800)
    rho_vals, s_of_rho = _gbar_radius(f1.value, sgrid)
    rho = CubicSpline(sgrid, rho_vals)
    s_tau = float(s_of_rho(tau))
    s_2tau = float(s_of_rho(2.0 * tau))
    if 2.0 * s_2tau >= 2.0 * t * 0.98:
        raise ValueError("glue annulus reaches the partner bubble")
    A_q = 0.25 / math.sin(t) ** 2
    return GluedData(eps=eps, t=t, tau=tau, A_q=A_q,
                     nu=matching_constant(eps, tau, A_q), s_tau=s_tau,
                     s_2tau=s_2tau, rho=rho, f1=f1,
                     chi_tau=CutoffProfile(tau, 2.0 * tau))


# ----------------------------------------------------------------------------
# GLUED and INTERP legs in (xi, eta) coordinates about the bubble center
# ----------------------------------------------------------------------------

class _LegBatch:
    """The geometry of one integrand batch in (xi, eta) about the bubble
    center at distance t = data.t from the lifted pole N, each scalar
    computed once and dropped with the batch: xi and eta with unit partials,
    their sines and cosines, the partner distance d2, the CNC jets f1 at xi
    and d2 (to second order with ``curvature``), the conformal exponent
    f = f1(xi) + f1(d2) and the weight e^{-f/2}; with ``chart``, also the
    chart radius theta and axial coordinate z_par of the chart point.

    theta and d2 come from ``_distance`` as atan2(sin d, cos d), sin d the
    hypot of two sums of products, so they keep their digits near the bubble
    core, where the arccos of a cosine near 1 would lose them."""

    def __init__(self, data: GluedData, xi_v, eta_v, chart: bool = False,
                 curvature: bool = False):
        t = data.t
        f1 = data.f1
        self.data = data
        self.xi = xi = D2.var_x(xi_v)
        eta = D2.var_y(eta_v)
        self.sin_xi, self.cos_xi = xi.sincos()
        sin_eta, cos_eta = eta.sincos()
        self.sin_eta = sin_eta.v
        self.d2 = self._distance(2.0 * t, cos_eta.v)[0]
        order = 2 if curvature else 1
        self.f1_xi = f1.jet(xi.v, order)
        self.f1_d2 = f1.jet(self.d2.v, order)
        self.f = xi.chain(*self.f1_xi[:2]) + self.d2.chain(*self.f1_d2[:2])
        self.weight = (self.f * (-0.5)).exp()
        if chart:
            self.theta, sin_theta = self._distance(t, cos_eta.v)
            # sin(theta) cos(psi): the point's component along the unit
            # tangent at N toward the bubble center
            along = self.cos_xi * math.sin(t) \
                - self.sin_xi * cos_eta * math.cos(t)
            self.z_par = self.theta * along / sin_theta

    def _distance(self, a: float, cos_eta):
        """(d, sin d) for the distance d to the axis point at distance a from
        the bubble center (eta = 0), with the exact partials d_xi d = m/s and
        d_eta d = sin(xi) n/s; the batch does not keep cos(eta)."""
        sx, cx = self.sin_xi.v, self.cos_xi.v
        sa, ca = math.sin(a), math.cos(a)
        m = sx * ca - cx * sa * cos_eta
        n = sa * self.sin_eta
        s = np.hypot(m, n)
        c = cx * ca + sx * sa * cos_eta
        d = D2(np.arctan2(s, c), m / s, sx * n / s)
        return d, d.chain(s, c)

    def green_lift(self) -> D2:
        """Gbar = e^{-f/2} (Gs(xi) + Gs(d2)), the CNC-corrected global kernel."""
        G = self.xi.apply(sphere_kernel, sphere_kernel_slope) \
            + self.d2.apply(sphere_kernel, sphere_kernel_slope)
        return self.weight * G

    def energy_density(self, u: D2) -> np.ndarray:
        """6 |grad u|^2 + R u^2 in gbar = e^f g_round, with R from the exact
        conformal formula (n = 4); needs a batch built with ``curvature``."""
        fx, fd = self.f1_xi, self.f1_d2
        d2 = self.d2.v
        lap = fx[2] + 3.0 * self.cos_xi.v / self.sin_xi.v * fx[1] \
            + fd[2] + 3.0 * np.cos(d2) / np.sin(d2) * fd[1]
        grad2 = fx[1] * fx[1] + fd[1] * fd[1]
        e = np.exp(-self.f.v)
        R = e * (12.0 - 3.0 * lap - 1.5 * grad2)
        return 6.0 * (e * (u.dx ** 2 + (u.dy / self.sin_xi.v) ** 2)) \
            + R * u.v ** 2

    def measure(self) -> np.ndarray:
        return np.exp(2.0 * self.f.v) * self.sin_xi.v ** 3 \
            * 4.0 * math.pi * self.sin_eta ** 2


def _w_glued(b: _LegBatch, ball: bool) -> D2:
    """The glued profile on the primary glue ball {xi <= s_tau} (``ball``),
    where it is the bubble, or on the annulus s_tau < xi <= s_2tau, where
    it is the cut-off blend of core and Green lift; each is built only on
    its own batch.  The far region, where it is the Green lift alone, is
    integrated by ``_flux_integrals`` and the far zone of
    ``_leg_integrals``, never through this profile."""
    d = b.data
    xi = b.xi
    rho = xi.chain(d.rho(xi.v), np.exp(0.5 * b.f1_xi[0]))  # rho' = e^{f1/2}
    if ball:
        return _bubble(d.eps, rho * rho)
    chi = _cutoff_d2(d.chi_tau, rho)
    core = (rho ** -2.0) + d.A_q
    return (chi * core + (1.0 - chi) * b.green_lift()) * (1.0 / d.nu)


def _e_tilde(b: _LegBatch, chi_delta: CutoffProfile) -> D2:
    """e^{-f/2} u_bar: the conformally weighted chart double bubble; needs a
    batch built with ``chart``."""
    u = _double_bubble_chart(b.data.eps, b.data.t, b.theta, b.z_par, chi_delta)
    return b.weight * u


def _psi_lambda(b: _LegBatch, lam: float, chi_delta, ball: bool) -> D2:
    """psi_lambda on a batch of the glue ball (``ball``) or annulus."""
    if lam == 1.0:
        return _w_glued(b, ball)
    return _w_glued(b, ball) * lam + _e_tilde(b, chi_delta) * (1.0 - lam)


def _flux_integrals(d: GluedData, lam: float, chi_delta,
                    spec: QuadratureSpec):
    """Exact boundary-flux part of the far numerator:

        N_far(psi, psi) = lam^2 N(G/nu) + 2 lam (1-lam) N(G/nu, e~) + ...,

    where the G-parts collapse to fluxes over the glue sphere xi = s_2tau
    (both copies) because L Gbar = 0 outside the poles.  Both fluxes are
    the rows of one 1-d vector integral over eta, G dG/drho and, for
    lam < 1 only, e~ dG/drho; the glued leg's cross term is 0.
    """
    s = d.s_2tau
    f1s = float(d.f1.value(s))
    mixed = lam != 1.0

    def fluxes(eta_v):
        b = _LegBatch(d, np.full_like(eta_v, s), eta_v, chart=mixed)
        G = b.green_lift()
        dG_drho = G.dx * math.exp(-0.5 * f1s)
        rows = [G, _e_tilde(b, chi_delta)] if mixed else [G]
        return np.stack([u.v * dG_drho * 4.0 * math.pi * np.sin(eta_v) ** 2
                         for u in rows])

    area_scale = math.exp(1.5 * f1s) * math.sin(s) ** 3
    res = integrate_radial(fluxes, (0.0, math.pi), spec).scaled(area_scale)
    # lam^2 N(G,G)/nu^2 and 2 lam(1-lam) N(G,e)/nu, each N collapsing to
    # -6 * (2 spheres) * flux
    coeff = np.array([-12.0 * lam ** 2 / d.nu ** 2,
                      -24.0 * lam * (1.0 - lam) / d.nu])[:len(res.value)]
    return IntegralResult(float(np.sum(coeff * res.value)),
                          float(np.sum(np.abs(coeff) * res.error_estimate)),
                          res.evaluations, res.converged)


def _mirror_band(d: GluedData):
    """The band (2t - s, min(2t + s, pi)) of circles xi = const that meet
    the mirror ball {d2 <= s}, s = s_2tau, or None at t = pi/2.

    Only t <= pi/2 reaches this code (larger t is mirrored through the exact
    pole-swap isometry), so the partner core sits at (2t, eta = 0).  At
    t = pi/2 the partner ball degenerates to the polar cap xi >= pi - s,
    where the leg's domain ends.
    """
    t = d.t
    s = d.s_2tau
    if math.sin(2.0 * t) < 1e-9:
        return None
    return 2.0 * t - s, min(2.0 * t + s, math.pi)


def _excluded_angle(d: GluedData, xi_v):
    """The angle e0(xi) that the mirror ball cuts out of the circle
    xi = const: the ball is {eta <= e0(xi)} on ``_mirror_band``, and e0 is
    exactly 0 off it."""
    band = _mirror_band(d)
    if band is None:
        return np.zeros_like(xi_v)
    # hav(eta) = (cos(xi - 2t) - cos s) / (2 sin xi sin 2t) in product
    # form, which keeps its digits toward the band ends, where e0 has
    # square-root ends
    s = d.s_2tau
    a = xi_v - 2.0 * d.t
    hav = np.sin(0.5 * (s - a)) * np.sin(0.5 * (s + a)) \
        / (np.sin(xi_v) * math.sin(2.0 * d.t))
    inside = (xi_v > band[0]) & (xi_v < band[1])
    return np.where(inside, 2.0 * np.arcsin(np.sqrt(np.clip(hav, 0.0, 1.0))),
                    0.0)


def _leg_integrals(d: GluedData, lam: float, chi_delta,
                   spec: QuadratureSpec) -> IntegralResult:
    """Numerator part and fourth power of psi_lambda outside the mirror
    ball, on one mesh: the two rows of one vector integral over (xi, v),
    with eta = e0(xi) + (pi - e0(xi)) v and Jacobian pi - e0.

    On the primary glue ball and annulus {xi <= s_2tau} the rows are
    2 [energy(psi), psi^4] (factor 2 for the mirror copy).  Beyond it psi is
    lam G/nu + (1 - lam) e~; the G-parts of its energy are the fluxes of
    ``_flux_integrals``, so the numerator row is the cross-free
    (1 - lam)^2 energy(e~), 0 on the glued leg.  Each zone is evaluated
    only on its own points.
    """
    t = d.t
    s = d.s_2tau
    mixed = lam != 1.0

    def integrand(xi_v, v_v):
        e0 = _excluded_angle(d, xi_v)
        span = math.pi - e0
        eta_v = e0 + span * v_v
        out = np.zeros((2, len(xi_v)))
        # one batch for each zone that holds points of this call
        ball, far = xi_v <= d.s_tau, xi_v > s
        for zone, in_ball in ((ball, True), (~ball & ~far, False)):
            if zone.any():
                b = _LegBatch(d, xi_v[zone], eta_v[zone], chart=mixed,
                              curvature=True)
                u = _psi_lambda(b, lam, chi_delta, in_ball)
                out[:, zone] = np.stack([b.energy_density(u), u.v ** 4]) \
                    * (2.0 * b.measure())
        if far.any():
            b = _LegBatch(d, xi_v[far], eta_v[far], chart=mixed,
                          curvature=mixed)
            measure = b.measure()
            u = b.green_lift() * (lam / d.nu)
            if mixed:
                e = _e_tilde(b, chi_delta)
                u = u + e * (1.0 - lam)
                out[0, far] = (1.0 - lam) ** 2 * b.energy_density(e) * measure
            out[1, far] = u.v ** 4 * measure
        return out * span

    # the core at xi = 0, the zone circles xi = s_tau, s_2tau, the circle
    # through N and the band edges, the square-root ends of e0, are all
    # constant in v: each is a seed break, so no box straddles one
    circles = [(0.0, d.eps), (d.s_tau, d.tau * 0.25), (s, d.tau * 0.25),
               (t, 0.2 * t)]
    band = _mirror_band(d)
    if band is not None:
        circles += [(edge, 0.05 * (band[1] - band[0])) for edge in band]
    xi_hi = math.pi if band is not None else math.pi - s
    gspec = spec.with_grading(*(((c, 0.0), (w, math.inf))
                                for c, w in circles))
    return integrate_rect2d(integrand, gspec, (1e-14, xi_hi), (0.0, 1.0))


def quotient_interp(eps: float, lam: float, spec: QuadratureSpec, t: float,
                    tau: float, delta: float):
    """Q of psi_lambda = lam w + (1 - lam) e^{-f/2} u at pole distance t,
    glue radius tau and chart cutoff delta; lam = 1 is the glued
    bubble/Green competitor.

    Returns (Q, err, converged) with the quotient lift factor included.  The
    numerator is the first row of the one (xi, v) mesh of
    ``_leg_integrals`` plus the one flux integral of the Green parts,
    ``_flux_integrals``; the denominator is the mesh's second row.
    """
    if t > math.pi / 2.0:
        # swapping the two conical points is an exact isometry of the model
        t = math.pi - t
    data = glued_data(eps, t, tau)
    chi_delta = cutoff_profile(1.0, inner=delta, outer=2.0 * delta)
    mesh = _leg_integrals(data, lam, chi_delta, spec)
    flux = _flux_integrals(data, lam, chi_delta, spec)
    return _quotient_from(mesh[0] + flux, mesh[1])


# ----------------------------------------------------------------------------
# the path
# ----------------------------------------------------------------------------

def evaluate_quotient(config: PathConfig, desc: TestFunctionDescriptor,
                      spec: QuadratureSpec):
    """(Q, err, converged) of one descriptor on the football with config's
    chart cutoff delta: the one dispatch on the leg name."""
    if desc.variant == "DOUBLE":
        return quotient_double(desc.epsilon, desc.t, config.delta, spec)
    if desc.variant not in ("GLUED", "INTERP"):
        raise ValueError(f"unknown variant {desc.variant!r}")
    lam = 1.0 if desc.variant == "GLUED" else desc.lam
    return quotient_interp(desc.epsilon, lam, spec, desc.t, desc.tau,
                           config.delta)


def _leg_descriptor(config: PathConfig, mu: float) -> TestFunctionDescriptor:
    """The competitor at mu in [0, 2.5]; the upper half mirrors it."""
    eps = config.epsilon
    te = eps ** config.alpha
    if mu <= 1.0:
        return TestFunctionDescriptor("DOUBLE", eps, t=mu * te)
    if mu <= 2.0:
        return TestFunctionDescriptor("INTERP", eps, t=te,
                                      tau=eps ** config.omega, lam=mu - 1.0)
    t = config.t_of_mu(mu)
    return TestFunctionDescriptor("GLUED", eps, t=t, tau=config.tau_of_t(t))


def _mirror_grid(n: int) -> np.ndarray:
    """n evenly spaced points of [0, 5] closed under mu -> 5 - mu bit for
    bit: the upper half is 5 - linspace(0, 2.5) and the lower half its image
    5 - upper, which is exact (Sterbenz), so 5 - lower gives upper back."""
    half = (np.linspace(0.0, 2.5, n // 2 + 1) if n % 2
            else np.linspace(0.0, 5.0, n)[: n // 2])
    upper = 5.0 - half[::-1]
    lower = 5.0 - upper[::-1]
    return np.concatenate([lower, upper[n % 2:]])


def build_path(config: PathConfig, mu_grid=None) -> PathProfile:
    """Assemble the five legs and evaluate Q on the mu grid in [0, 5].

    The pole swap is an exact isometry of the football, so Q(mu) =
    Q(5 - mu): each mu is evaluated through the descriptor of
    min(mu, 5 - mu), and a mirror pair costs one evaluation."""
    if mu_grid is None:
        mu_grid = _mirror_grid(config.mu_points)
    mu_grid = np.asarray(mu_grid, dtype=float)
    spec = config.spec()
    # the bubble legs sit far below the critical level, so their quadrature
    # budget can be much looser than the middle leg's, whose margin is the
    # path's smallest
    loose = spec.scaled(30.0)
    Q = np.empty(len(mu_grid))
    E = np.empty(len(mu_grid))
    ok = np.empty(len(mu_grid), dtype=bool)
    legs = []
    done = {}
    for i, mu in enumerate(mu_grid):
        mu = float(mu)
        desc = _leg_descriptor(config, min(mu, 5.0 - mu))
        if desc not in done:
            try:
                use = spec if desc.variant == "GLUED" else loose
                done[desc] = evaluate_quotient(config, desc, use)
            except Exception as exc:
                raise RuntimeError(f"leg evaluation failed at mu={mu}: {exc}") from exc
        Q[i], E[i], ok[i] = done[desc]
        legs.append(desc.variant)
    return PathProfile(config=config, mu=mu_grid, Q=Q, Q_err=E, legs=legs,
                       converged=ok)


# ----------------------------------------------------------------------------
# expansion-constant fits
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionFit:
    A_hat: float
    exponent_free: float
    residual: float
    eps_sequence: np.ndarray
    Q_values: np.ndarray
    converged: np.ndarray  # per eps: both integrals met their contract


def fit_expansion_A(config: PathConfig, eps_sequence, mu: float,
                    spec: QuadratureSpec | None = None) -> ExpansionFit:
    """Fit Q = 6 S4 - A_hat eps^{2(1-alpha)} - C eps^{2 alpha ...} to the
    path's competitor at mu in [0, 2.5], evaluated at each eps of the
    sequence with the rest of config held, to config's spec unless given.

    The two-term model absorbs the next allowed order eps^{4-4 omega}; the
    free exponent is refit separately from the leading behavior.
    """
    if not 0.0 <= mu <= 2.5:
        raise ValueError(f"mu must lie in [0, 2.5], got {mu!r}")
    if spec is None:
        spec = config.spec()
    alpha, omega = config.alpha, config.omega
    k = sobolev_constants()
    eps_sequence = np.asarray(sorted(eps_sequence, reverse=True), dtype=float)
    Q = np.empty(len(eps_sequence))
    ok = np.empty(len(eps_sequence), dtype=bool)
    for i, eps in enumerate(eps_sequence):
        at_eps = replace(config, epsilon=eps)
        Q[i], _, ok[i] = evaluate_quotient(at_eps, _leg_descriptor(at_eps, mu),
                                           spec)
    gap = 6.0 * k.S4 - Q
    # subleading orders the expansions themselves produce: the cutoff tail /
    # metric terms at eps^{2 alpha} (coinciding with eps^{4 - 4 omega} for the
    # default exponents) and the second bracket order eps^{4(1 - alpha)}
    powers = [2.0 * (1.0 - alpha)]
    for p in (min(2.0 * alpha, 4.0 - 4.0 * omega), 4.0 * (1.0 - alpha)):
        if all(abs(p - q) > 1e-12 for q in powers):
            powers.append(p)
    design = np.stack([eps_sequence ** p for p in powers], axis=1)
    coef, *_ = np.linalg.lstsq(design, gap, rcond=None)
    resid = float(np.sqrt(np.mean((gap - design @ coef) ** 2)))
    # free-exponent probe on the leading behavior
    slope, _ = np.polyfit(np.log(eps_sequence), np.log(gap), 1)
    return ExpansionFit(A_hat=float(coef[0]), exponent_free=float(slope),
                        residual=resid, eps_sequence=eps_sequence, Q_values=Q,
                        converged=ok)
