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

Each leg is a type of its own, ``DoubleLeg``, ``InterpLeg`` and
``GluedLeg``, that evaluates its quotient and picks its tolerance; the path
and the fits reach them through one delegating call, ``evaluate_quotient``.
Each GLUED/INTERP integrand call builds one ``_LegBatch`` per zone with
points from the leg's ``GluedData``: it holds the zone's geometry and
evaluates the Green lift, energy density and measure from it.  Factors of xi
alone are evaluated once per run of equal xi (the engine lays each box out
as 15 runs of 15) and spread to the points, with no eta-partial; each batch
carries only the jet order its readers need.  The far zone reads the Green
lift as values alone, and beyond xi = t + 2 delta, where e~ is exactly 0, it
forms values alone, with no chart, on the INTERP leg as on the glued one.

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
from cyl.constants import bubble, exponents_admissible, sobolev_constants
from cyl.geometry.cnc import CutoffProfile, RadialCNCProfile, cnc_profile
from cyl.green import (RadialChart, matching_constant, sphere_kernel,
                       sphere_kernel_slope)
from cyl.quadrature import (IntegralResult, QuadratureSpec,
                            integrate_axisym_sphere, integrate_radial,
                            integrate_rect2d)

__all__ = [
    "D2",
    "DoubleLeg",
    "InterpLeg",
    "GluedLeg",
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
    v, dx and dy are kept as given, arrays of one shape.  A partial of None
    is an exact 0 that is never formed (``var_x`` has no y-partial, ``var_y``
    no x-partial) and every operation keeps it absent; a plain operand is a
    constant.  Partials keep the dense formulas' bits, up to a zero's sign."""

    __slots__ = ("v", "dx", "dy")

    def __init__(self, v, dx, dy):
        self.v, self.dx, self.dy = v, dx, dy

    @staticmethod
    def var_x(v):
        v = np.asarray(v, dtype=float)
        return D2(v, np.ones_like(v), None)

    @staticmethod
    def var_y(v):
        v = np.asarray(v, dtype=float)
        return D2(v, None, np.ones_like(v))

    def __add__(self, o):
        o = o if isinstance(o, D2) else D2(o, None, None)
        return D2(self.v + o.v, _sum(self.dx, o.dx), _sum(self.dy, o.dy))

    __radd__ = __add__

    def __sub__(self, o):
        o = o if isinstance(o, D2) else D2(o, None, None)
        return D2(self.v - o.v, _diff(self.dx, o.dx), _diff(self.dy, o.dy))

    def __rsub__(self, o):
        return D2(o, None, None) - self

    def __mul__(self, o):
        o = o if isinstance(o, D2) else D2(o, None, None)
        return D2(self.v * o.v, _cross(self.dx, o.v, self.v, o.dx),
                  _cross(self.dy, o.v, self.v, o.dy))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = o if isinstance(o, D2) else D2(o, None, None)
        inv = 1.0 / o.v
        q = self.v * inv
        return D2(q, _quot(self.dx, q, o.dx, inv),
                  _quot(self.dy, q, o.dy, inv))

    def __rtruediv__(self, o):
        return D2(o, None, None) / self

    def __pow__(self, p):
        w = self.v ** (p - 1)
        return self.chain(self.v * w, p * w)

    def chain(self, value, slope):
        """g(self) from the values of g and g' at self.v."""
        return D2(value, _scale(slope, self.dx), _scale(slope, self.dy))

    def apply(self, f, fp):
        """Chain an elementwise function with known derivative."""
        return self.chain(f(self.v), fp(self.v))

    def cos(self):
        return self.apply(np.cos, lambda v: -np.sin(v))

    def exp(self):
        e = np.exp(self.v)
        return self.chain(e, e)


def _sum(x, y):
    return x if y is None else y if x is None else x + y


def _diff(x, y):
    return x if y is None else -y if x is None else x - y


def _scale(a, x):
    return None if x is None else a * x


def _cross(x, a, b, y):
    """x a + b y, summed in place."""
    out = _scale(a, x)
    if out is None or y is None:
        return _sum(out, _scale(b, y))
    out += b * y
    return out


def _quot(x, q, y, inv):
    """(x - q y) inv, scaled in place."""
    if y is None:
        return _scale(inv, x)
    out = _diff(x, q * y)
    out *= inv
    return out


def _cutoff_d2(profile: CutoffProfile, s: D2) -> D2:
    return s.chain(*profile.jet(s.v, 1))


def _grad2(u: D2, w):
    """|grad u|^2 = u_x^2 + (u_y / w)^2; an absent u_y is 0."""
    g = u.dx ** 2
    return g if u.dy is None else g + (u.dy / w) ** 2


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

def _double_bubble_chart(eps: float, t: float, theta: D2, axial: D2,
                         chi: CutoffProfile | None) -> D2:
    """The bubble pair at -+t e1 at the chart point z of radius theta and
    axial coordinate z.e1, cut off by chi(theta) unless chi is None."""
    theta2 = theta * theta
    d2m = theta2 + t * t - 2.0 * t * axial
    d2p = theta2 + t * t + 2.0 * t * axial
    u = bubble(d2m, eps) + bubble(d2p, eps)
    if chi is not None:
        u = u * _cutoff_d2(chi, theta)
    return u


# ----------------------------------------------------------------------------
# DOUBLE leg
# ----------------------------------------------------------------------------

def quotient_double(eps: float, t: float, delta: float | None,
                    spec: QuadratureSpec, chart: RadialChart):
    """Q of the (cut-off) double bubble on a model chart: the football's
    round chart or the exact flat cone.

    Returns (Q, err, converged) on the quotient, lift factor included.
    ``delta = None`` drops the cutoff and integrates the whole chart."""
    theta_max = 2.0 * delta if delta is not None else chart.extent
    chi = CutoffProfile(delta, 2.0 * delta) if delta is not None else None

    def integrand(theta_v, psi_v):
        # numerator and fourth power of one bubble pair, unweighted rows
        theta = D2.var_x(theta_v)
        cos_psi = D2(np.cos(psi_v), None, -np.sin(psi_v))  # cos of var_y
        u = _double_bubble_chart(eps, t, theta, theta * cos_psi, chi)
        grad2 = _grad2(u, chart.w(theta_v))
        return np.stack([6.0 * grad2 + chart.scal(theta_v) * u.v ** 2,
                         u.v ** 4])

    # the point cores at (t, 0) and (t, pi) are eps wide in theta and
    # eps/t in psi; at t = 0 the pair sits at the origin, constant in psi
    width = eps / t if t > 0.0 else math.inf
    gspec = spec.with_grading(((t, 0.0), (eps, width)),
                              ((t, math.pi), (eps, width)))
    res = integrate_axisym_sphere(integrand, gspec, (1e-12, theta_max),
                                  lambda th: chart.w(th) ** 3)
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
    mass 1/(4 sin^2 t) of the CNC-corrected Green lift, ``f1.radius`` rho."""

    eps: float
    t: float
    tau: float
    A_q: float
    nu: float
    s_tau: float          # chart radius with rho(s_tau) = tau
    s_2tau: float
    f1: RadialCNCProfile  # CNC exponent branch profile f1(s), its jet and rho
    chi_tau: CutoffProfile


def glued_data(eps: float, t: float, tau: float) -> GluedData:
    """Matching data for the glued test function at pole distance t."""
    if not 0.0 < eps < tau < t:
        raise ValueError("need 0 < eps < tau < t")
    f1 = cnc_profile(t)
    s_tau, s_2tau = map(float, f1.radius_inverse(np.array([tau, 2.0 * tau])))
    if 2.0 * s_2tau >= 2.0 * t * 0.98:
        raise ValueError("glue annulus reaches the partner bubble")
    A_q = 0.25 / math.sin(t) ** 2
    return GluedData(eps=eps, t=t, tau=tau, A_q=A_q,
                     nu=matching_constant(eps, tau, A_q), s_tau=s_tau,
                     s_2tau=s_2tau, f1=f1,
                     chi_tau=CutoffProfile(tau, 2.0 * tau))


# ----------------------------------------------------------------------------
# GLUED and INTERP legs in (xi, eta) coordinates about the bubble center
# ----------------------------------------------------------------------------

def _runs(x):
    """(starts, lengths) of the runs of equal neighbours in x, from one
    neighbour compare: the engine lays each box out as 15 runs of 15 equal
    xi, and any other order gives shorter runs, never wrong ones."""
    new = np.empty(len(x), dtype=bool)
    new[:1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, len(x)))


def _value(x):
    return x.v if isinstance(x, D2) else x


class _LegBatch:
    """The geometry of one integrand batch in (xi, eta) about the bubble
    center at distance t = data.t from the lifted pole N, each scalar
    computed once and dropped with the batch: sin and cos xi and eta, the
    partner distance d2, the CNC jets f1 at xi and d2, the conformal exponent
    f = f1(xi) + f1(d2) and the weight e^{-f/2}; with ``chart``, also the
    chart radius theta and axial coordinate z_par of the chart point.

    ``curvature`` is the jet order the batch's readers need: 0 keeps values
    alone (every scalar a plain array), 1 adds the D2 partials against
    (xi, eta), and 2 also the second CNC derivatives that the scalar
    curvature of ``energy_density`` reads.

    Factors of xi alone are evaluated once per run of equal xi (``_runs``)
    on the runs' own xi, ``xi_run``, and spread to the points by ``spread``;
    ``f1_xi`` and ``sin_run``/``cos_run`` stay per run.

    theta and d2 come from ``_distance`` as atan2(sin d, cos d), sin d the
    hypot of two sums of products, so they keep their digits near the bubble
    core, where the arccos of a cosine near 1 would lose them."""

    def __init__(self, data: GluedData, xi_v, eta_v, chart: bool = False,
                 curvature: int = 1):
        t = data.t
        f1 = data.f1
        self.data = data
        self.order = curvature
        starts, self.counts = _runs(xi_v)
        xr = xi_v[starts]
        sin_r, cos_r = self.sin_run, self.cos_run = np.sin(xr), np.cos(xr)
        self.f1_xi = f1.jet(xr, curvature)
        if curvature:
            self.xi_run = x = D2.var_x(xr)
            sin_r, cos_r = x.chain(sin_r, cos_r), x.chain(cos_r, -sin_r)
            f_xi = x.chain(*self.f1_xi[:2])
        else:
            self.xi_run, f_xi = xr, self.f1_xi[0]
        self.sin_xi, self.cos_xi = self.spread(sin_r), self.spread(cos_r)
        self.sin_eta, cos_eta = np.sin(eta_v), np.cos(eta_v)
        self.d2 = self._distance(2.0 * t, cos_eta)[0]
        self.f1_d2 = f1.jet(_value(self.d2), curvature)
        self.f = self.spread(f_xi) + (self.d2.chain(*self.f1_d2[:2])
                                      if curvature else self.f1_d2[0])
        h = self.f * (-0.5)
        self.weight = h.exp() if curvature else np.exp(h)
        if chart:
            self.theta, s, c = self._distance(t, cos_eta)
            sin_theta = self.theta.chain(s, c) if self.order else s
            # sin(theta) cos(psi): the point's component along the unit
            # tangent at N toward the bubble center; d_eta eta = 1 implied
            cos_eta = D2(cos_eta, None, -self.sin_eta)
            along = self.cos_xi * math.sin(t) \
                - self.sin_xi * cos_eta * math.cos(t)
            self.z_par = self.theta * along / sin_theta

    def spread(self, a):
        """A per-run value, plain or D2, repeated onto the batch's points."""
        if isinstance(a, D2):
            return D2(*(None if p is None else np.repeat(p, self.counts)
                        for p in (a.v, a.dx, a.dy)))
        return np.repeat(a, self.counts)

    def _distance(self, a: float, cos_eta):
        """(d, sin d, cos d) for the distance d to the axis point at distance
        a from the bubble center (eta = 0), d with the exact partials
        d_xi d = m/s and d_eta d = sin(xi) n/s at jet order 1 and up; the
        batch does not keep cos(eta)."""
        sx, cx = _value(self.sin_xi), _value(self.cos_xi)
        sa, ca = math.sin(a), math.cos(a)
        m = sx * ca - cx * sa * cos_eta
        n = sa * self.sin_eta
        s = np.hypot(m, n)
        c = cx * ca + sx * sa * cos_eta
        if not self.order:
            return np.arctan2(s, c), s, c
        return D2(np.arctan2(s, c), m / s, sx * n / s), s, c

    def green_lift(self) -> D2:
        """Gbar = e^{-f/2} (Gs(xi) + Gs(d2)), the CNC-corrected global kernel."""
        G = self.spread(self.xi_run.apply(sphere_kernel, sphere_kernel_slope)) \
            + self.d2.apply(sphere_kernel, sphere_kernel_slope)
        return self.weight * G

    def green_value(self) -> np.ndarray:
        """The values of ``green_lift``, with no partial formed."""
        G = self.spread(sphere_kernel(_value(self.xi_run))) \
            + sphere_kernel(_value(self.d2))
        return _value(self.weight) * G

    def energy_density(self, u: D2) -> np.ndarray:
        """6 |grad u|^2 + R u^2 in gbar = e^f g_round, with R from the exact
        conformal formula (n = 4); needs jet order 2."""
        fx, fd = self.f1_xi, self.f1_d2
        d2 = self.d2.v
        lap = self.spread(fx[2] + 3.0 * self.cos_run / self.sin_run * fx[1]) \
            + fd[2] + 3.0 * np.cos(d2) / np.sin(d2) * fd[1]
        grad2 = self.spread(fx[1] * fx[1]) + fd[1] * fd[1]
        e = np.exp(-self.f.v)
        R = e * (12.0 - 3.0 * lap - 1.5 * grad2)
        return 6.0 * (e * _grad2(u, self.sin_xi.v)) + R * u.v ** 2

    def measure(self) -> np.ndarray:
        return np.exp(2.0 * _value(self.f)) * self.spread(self.sin_run ** 3) \
            * 4.0 * math.pi * self.sin_eta ** 2


def _w_glued(b: _LegBatch, ball: bool) -> D2:
    """The glued profile on the primary glue ball {xi <= s_tau} (``ball``),
    where it is the bubble, or on the annulus s_tau < xi <= s_2tau, where
    it is the cut-off blend of core and Green lift; each is built only on
    its own batch.  The far region, where it is the Green lift alone, is
    integrated by ``_flux_integrals`` and the far zone of
    ``_leg_integrals``, never through this profile."""
    d = b.data
    xi = b.xi_run
    # per run of xi: rho' = e^{f1/2}, and all of w on the ball
    rho = xi.chain(d.f1.radius(xi.v), np.exp(0.5 * b.f1_xi[0]))
    if ball:
        return b.spread(bubble(rho * rho, d.eps))
    chi = _cutoff_d2(d.chi_tau, rho)
    core = (rho ** -2.0) + d.A_q
    return (b.spread(chi * core) + b.spread(1.0 - chi) * b.green_lift()) \
        * (1.0 / d.nu)


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


def _e_free_radius(t: float, chi_delta: CutoffProfile) -> float:
    """The xi beyond which e~ is an exact 0: there theta >= xi - t > 2 delta,
    chi_delta's outer radius, with a relative margin over theta's rounding."""
    return (t + chi_delta.r2) * (1.0 + 1e-12)


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
    e_free = _e_free_radius(t, chi_delta) if mixed else s  # no e~ at lam = 1

    def integrand(xi_v, v_v):
        # e0 and its span once per run of xi
        starts, counts = _runs(xi_v)
        e0 = _excluded_angle(d, xi_v[starts])
        e0, span = np.repeat(e0, counts), np.repeat(math.pi - e0, counts)
        eta_v = e0 + span * v_v
        out = np.zeros((2, len(xi_v)))
        # one batch for each zone that holds points of this call
        ball, far = xi_v <= d.s_tau, xi_v > s
        for zone, in_ball in ((ball, True), (~ball & ~far, False)):
            if zone.any():
                b = _LegBatch(d, xi_v[zone], eta_v[zone], chart=mixed,
                              curvature=2)
                u = _psi_lambda(b, lam, chi_delta, in_ball)
                out[:, zone] = np.stack([b.energy_density(u), u.v ** 4]) \
                    * (2.0 * b.measure())
        # the far zone reads G's values alone, and e~ only short of e_free
        near = far & (xi_v <= e_free)
        if near.any():
            b = _LegBatch(d, xi_v[near], eta_v[near], chart=True, curvature=2)
            e = _e_tilde(b, chi_delta)
            out[:, near] = np.stack([(1.0 - lam) ** 2 * b.energy_density(e),
                                     (b.green_value() * (lam / d.nu)
                                      + e.v * (1.0 - lam)) ** 4]) * b.measure()
        far &= ~near
        if far.any():
            b = _LegBatch(d, xi_v[far], eta_v[far], curvature=0)
            out[1, far] = (b.green_value() * (lam / d.nu)) ** 4 * b.measure()
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
    chi_delta = CutoffProfile(delta, 2.0 * delta)
    mesh = _leg_integrals(data, lam, chi_delta, spec)
    flux = _flux_integrals(data, lam, chi_delta, spec)
    return _quotient_from(mesh[0] + flux, mesh[1])


# ----------------------------------------------------------------------------
# the path
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleLeg:
    """The cut-off bubble pair at -+t, with no glue: tau = lam = 0."""
    variant = "DOUBLE"
    tau = 0.0
    lam = 0.0
    tol_scale = 30.0
    epsilon: float
    t: float

    def quotient(self, delta: float, spec: QuadratureSpec):
        return quotient_double(self.epsilon, self.t, delta, spec,
                               RadialChart.round())


@dataclass(frozen=True)
class GluedLeg:
    """The glued bubble/Green competitor: INTERP at lam = 1, no argument."""
    variant = "GLUED"
    lam = 1.0
    tol_scale = 1.0
    epsilon: float
    t: float
    tau: float

    def quotient(self, delta: float, spec: QuadratureSpec):
        return quotient_interp(self.epsilon, self.lam, spec, self.t, self.tau,
                               delta)


@dataclass(frozen=True)
class InterpLeg:
    """psi_lam = lam w + (1 - lam) e~ for lam in [0, 1]."""
    variant = "INTERP"
    tol_scale = 30.0
    epsilon: float
    t: float
    tau: float
    lam: float
    quotient = GluedLeg.quotient

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"an INTERP leg has lam in [0, 1], "
                             f"got {self.lam!r}")


def evaluate_quotient(config: PathConfig, leg, spec: QuadratureSpec):
    """(Q, err, converged) of the leg with config's chart cutoff delta."""
    return leg.quotient(config.delta, spec)


def _leg_descriptor(config: PathConfig, mu: float):
    """The competitor at mu in [0, 5]; the upper half mirrors the lower."""
    if not 0.0 <= mu <= 5.0:
        raise ValueError(f"mu must lie in [0, 5], got {mu!r}")
    mu = min(mu, 5.0 - mu)
    eps = config.epsilon
    te = eps ** config.alpha
    if mu <= 1.0:
        return DoubleLeg(eps, mu * te)
    if mu <= 2.0:
        return InterpLeg(eps, te, eps ** config.omega, mu - 1.0)
    t = config.t_of_mu(mu)
    return GluedLeg(eps, t, config.tau_of_t(t))


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
    Q(5 - mu): each mu is evaluated through the leg of min(mu, 5 - mu),
    and a mirror pair costs one evaluation, every mu checked first."""
    if mu_grid is None:
        mu_grid = _mirror_grid(config.mu_points)
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.ndim != 1 or not len(mu_grid):
        raise ValueError("mu_grid must be a non-empty 1-d sequence of mu, "
                         f"got shape {mu_grid.shape}")
    legs = [_leg_descriptor(config, float(mu)) for mu in mu_grid]
    spec = config.spec()
    # a leg scales the path's tolerance by its tol_scale: the bubble legs sit
    # far below the critical level, so their quadrature budget can be much
    # looser than the glued leg's, whose margin is the path's smallest
    Q = np.empty(len(mu_grid))
    E = np.empty(len(mu_grid))
    ok = np.empty(len(mu_grid), dtype=bool)
    done = {}
    for i, (mu, leg) in enumerate(zip(mu_grid, legs)):
        if leg not in done:
            try:
                done[leg] = evaluate_quotient(config, leg,
                                              spec.scaled(leg.tol_scale))
            except Exception as exc:
                raise RuntimeError(f"leg evaluation failed at mu={mu}: {exc}") from exc
        Q[i], E[i], ok[i] = done[leg]
    return PathProfile(config=config, mu=mu_grid, Q=Q, Q_err=E,
                       legs=[leg.variant for leg in legs], converged=ok)


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
    path's competitor at mu in [0, 5], evaluated at each eps of the
    sequence with the rest of config held, to config's spec unless given.

    The two-term model absorbs the next allowed order eps^{4-4 omega}; the
    free exponent is refit separately from the leading behavior.
    """
    eps_sequence = np.asarray(sorted(eps_sequence, reverse=True), dtype=float)
    configs = [replace(config, epsilon=eps) for eps in eps_sequence]
    legs = [_leg_descriptor(at_eps, mu) for at_eps in configs]
    if len(set(eps_sequence)) < 3:
        raise ValueError("the fit needs at least 3 distinct epsilons")
    if spec is None:
        spec = config.spec()
    alpha, omega = config.alpha, config.omega
    k = sobolev_constants()
    Q = np.empty(len(eps_sequence))
    ok = np.empty(len(eps_sequence), dtype=bool)
    for i, (at_eps, leg) in enumerate(zip(configs, legs)):
        Q[i], _, ok[i] = evaluate_quotient(at_eps, leg, spec)
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
