"""Double-bubble interaction curves and their certified properties.

For the symmetric pair U_+ = U_{eps, t e1}, U_- = U_{eps, -t e1} this module
computes

    a(t) = 6 int |grad(U_+ + U_-)|^2        (assembled as 12*S4*(1 + I31))
    b(t) = (int (U_+ + U_-)^4)^(1/2)        (assembled as sqrt(2 + 8*I31 + 6*I22))
    c(t) = int U_+^2 U_-^2
    f(t) = a(t) / b(t)

where I31 = int U_+^3 U_- and I22 = c.  The self terms are exact closed
forms (int |grad U|^2 = S4, int U^4 = 1), and since -Lap U = S4 U^3 the
cross term G = int grad U_+ . grad U_- is S4*I31 exactly (integrate by
parts), so only the two small cross terms I31 and I22 are quadratures and the
error bars on f stay proportional to the interaction size.  G itself is still
integrated by ``interaction_integral("GRAD")``, the independent check of that
identity.  All integrals reduce to eps = 1 through the exact scale invariance
curve(eps, t) = curve(1, t/eps).

Every quantity at one point is one call of the 2-d engine with a vector
integrand, each row held to its own tolerance: I31 and I22 at one t share a
mesh, and so do the sign-definite integrands of a'(t) and c'(t).  The
mirror zeta -> -zeta swaps U_+ and U_-, so every integral here runs over the
half-space zeta > 0: the rows of a curve point are folded, f(zeta) +
f(-zeta), and the derivative integrands are reduced there.  Derivative
identities are checked with central differences on one frozen mesh per t,
adapted to the same two rows and built for a whole grid as one sweep,
which makes the quadrature error cancel in the differences instead of being
amplified by 1/h.  Every profile here is ``constants.bubble``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from cyl.constants import bubble, sobolev_constants
from cyl.quadrature import (IntegralResult, QuadratureSpec, build_frozen_mesh,
                            integrate_biradial)

__all__ = [
    "InteractionCurves",
    "MonotonicityReport",
    "SlopeFit",
    "interaction_integral",
    "curves",
    "derivative_quadratures",
    "verify_b_prime_identity",
    "verify_monotonicity",
    "asymptotic_slope",
    "KINDS",
]

KINDS = ("U3V", "GRAD", "U2V2")
# the rows of one curve point: I31 and I22 (G = S4 * I31)
_POINT = ("U3V", "U2V2")
# the mirror half-space zeta > 0, where every integral here runs
_HALF = (0.0, math.inf)


def _scales(epsilon: float, t) -> np.ndarray:
    """t as a float array; raises unless epsilon and every t are finite and
    > 0.  Every public entry point starts with it."""
    t = np.asarray(t, dtype=float)
    if not (0.0 < epsilon < math.inf and np.all((0.0 < t) & (t < math.inf))):
        raise ValueError("epsilon and every t must be finite and > 0")
    return t


def _integrand(kinds):
    """Reduced (eps = 1) bi-radial integrand F(zeta, rho, tau) with centers
    at (+-tau, 0): a (k, m) array, one row per kind, so the kinds share one
    mesh.  Each row is folded onto zeta > 0 as f(zeta) + f(-zeta); the mirror
    swaps U_+ and U_-, so GRAD and U2V2 double and U3V becomes U_+ U_-
    (U_+^2 + U_-^2)."""
    unknown = set(kinds) - set(KINDS)
    if unknown:
        raise ValueError(f"unknown interaction kinds {sorted(unknown)}")
    c4 = sobolev_constants().c4
    # GRAD alone reads no bubble value
    bubbles = not {"U3V", "U2V2"}.isdisjoint(kinds)

    def F(z, p, tau):
        p2 = p * p
        rp = (z - tau) ** 2 + p2
        rm = (z + tau) ** 2 + p2
        if bubbles:
            up, um = bubble(rp), bubble(rm)
            up2, um2 = up ** 2, um ** 2
        # each row is written into its line of one (k, m) array
        row = {"U3V": lambda o: np.multiply(np.multiply(up, um, out=o),
                                            up2 + um2, out=o),
               "U2V2": lambda o: np.multiply(np.multiply(2.0, up2, out=o),
                                             um2, out=o),
               "GRAD": lambda o: np.divide(
                   8.0 * c4 ** 2 * (z * z - tau * tau + p2),
                   (1.0 + rp) ** 2 * (1.0 + rm) ** 2, out=o)}
        out = np.empty((len(kinds), np.size(z)))
        for o, kind in zip(out, kinds):
            row[kind](o)
        return out

    return F


def _graded(spec: QuadratureSpec, tau: float) -> QuadratureSpec:
    # both ladders: with the -tau rungs that land on zeta > 0, the seed is
    # the full line's seed cut to zeta >= 0
    return spec.with_grading(((tau, 0.0), 1.0), ((-tau, 0.0), 1.0))


def _sweep(kinds, epsilon: float, t, spec: QuadratureSpec):
    """The rows ``kinds`` at each t, one integral per t, in one sweep."""
    taus = _scales(epsilon, np.atleast_1d(t)) / epsilon
    return integrate_biradial(_integrand(kinds), [
        _graded(spec, tau) for tau in map(float, taus)], _HALF, params=taus)


def interaction_integral(kind: str, epsilon: float, t,
                         spec: QuadratureSpec) -> IntegralResult:
    """One of int U_+^3 U_-, int grad U_+ . grad U_-, int U_+^2 U_-^2 over R^4.

    Scale invariant in (epsilon, t); evaluated at eps = 1 with tau = t/eps.
    A sequence of t gives a list, one result per t, from one sweep.
    """
    res = [r[0] for r in _sweep((kind,), epsilon, t, spec)]
    return res if np.ndim(t) else res[0]


@dataclass(frozen=True)
class InteractionCurves:
    epsilon: float
    t_grid: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    f: np.ndarray
    a_err: np.ndarray
    b_err: np.ndarray
    c_err: np.ndarray
    f_err: np.ndarray
    converged: np.ndarray

    def bracket_margins(self):
        """(lower, upper) distances of f(t) to the open bracket
        (6*S4, 6*sqrt(2)*S4)."""
        k = sobolev_constants()
        return self.f - 6.0 * k.S4, 6.0 * math.sqrt(2.0) * k.S4 - self.f

    def in_bracket(self) -> np.ndarray:
        """True where f lies more than 3 f_err inside the bracket."""
        lo, hi = self.bracket_margins()
        return (lo > 3.0 * self.f_err) & (hi > 3.0 * self.f_err)


def _assemble_point(res: IntegralResult):
    """a, b, c, f, their errors and the flag from the rows I31, I22, with
    a = 12 S4 (1 + I31) from G = S4 I31."""
    i31, i22 = res[0], res[1]
    k = sobolev_constants()
    a = 12.0 * k.S4 * (1.0 + i31.value)
    a_err = 12.0 * k.S4 * i31.error_estimate
    b = math.sqrt(2.0 + 8.0 * i31.value + 6.0 * i22.value)
    b_err = (8.0 * i31.error_estimate + 6.0 * i22.error_estimate) / (2.0 * b)
    f = a / b
    f_err = abs(f) * (a_err / abs(a) + b_err / b)
    return (a, b, i22.value, f, a_err, b_err, i22.error_estimate, f_err,
            res.converged)


def curves(epsilon: float, t_grid, spec: QuadratureSpec) -> InteractionCurves:
    """Evaluate a, b, c, f on a grid of center offsets t > 0."""
    t_grid = _scales(epsilon, t_grid)
    rows = [_assemble_point(r) for r in _sweep(_POINT, epsilon, t_grid, spec)]
    *cols, ok = np.array(rows, dtype=float).reshape(-1, 9).T.copy()
    return InteractionCurves(epsilon, t_grid, *cols, converged=ok.astype(bool))


# ----------------------------------------------------------------------------
# frozen-mesh evaluation of nearby t values
# ----------------------------------------------------------------------------

def _frozen_points(taus, hs, shifts, spec: QuadratureSpec) -> list:
    """``_assemble_point`` at tau + s*h for each s of ``shifts``, per tau and
    h, on the frozen mesh of the two rows I31, I22 at tau; the meshes of all
    the taus are one sweep.  One (len(shifts), 9) array per tau."""
    F = _integrand(_POINT)
    meshes = build_frozen_mesh(F, [_graded(spec, tau) for tau in taus], _HALF,
                               params=taus)
    return [np.array([_assemble_point(mesh.evaluate(
        lambda z, p, x=tau + s * h: F(z, p, x))) for s in shifts])
        for mesh, tau, h in zip(meshes, taus, hs)]


def verify_b_prime_identity(epsilon: float, t: float, h_fd: float,
                            spec: QuadratureSpec) -> float:
    """Residual of  b' = (2/b) * (a'/(6 S4) + (3/2) c')  at one t.

    Primes are central differences with step h_fd, evaluated on a frozen
    quadrature mesh so the finite differences see smooth values.
    """
    _scales(epsilon, t)
    if not (t > h_fd > 0.0):
        raise ValueError("need t > h_fd > 0")
    k = sobolev_constants()
    tau, h = t / epsilon, h_fd / epsilon
    (mid, p, m), = _frozen_points([tau], [h], (0, 1, -1), spec)
    da, db, dc = (p[:3] - m[:3]) / (2.0 * h)
    # reduced-variable residual equals epsilon * (residual in original t)
    return abs(db - (2.0 / mid[1]) * (da / (6.0 * k.S4) + 1.5 * dc)) / epsilon


@dataclass(frozen=True)
class MonotonicityReport:
    t_grid: np.ndarray
    a_prime_quad: np.ndarray
    c_prime_quad: np.ndarray
    all_negative: bool
    cross_consistent: bool
    first_violation: int  # grid index, -1 when clean
    converged: bool       # every integral met its contract


def _prime_integrand(z, p, tau):
    # reduced forms of the sign-definite brackets for a'(t) and c'(t):
    # 24 S4 int (U'(w)/w) zeta [U^3(near) - U^3(far)] and
    # 4 int (U'(w)/w) zeta U(w) [U^2(near) - U^2(far)],  w^2 = zeta^2 + rho^2
    c4 = sobolev_constants().c4
    w2 = z * z + p * p
    lead = np.where(z > 0.0, -2.0 * c4 / (1.0 + w2) ** 2 * z, 0.0)
    near = bubble((z - 2.0 * tau) ** 2 + p * p)
    far = bubble((z + 2.0 * tau) ** 2 + p * p)
    return np.stack([lead * (near ** 3 - far ** 3),
                     lead * bubble(w2) * (near ** 2 - far ** 2)])


def derivative_quadratures(epsilon: float, t, spec: QuadratureSpec):
    """(a'(t), c'(t)) by direct quadrature of the reduced sign-definite
    integrands over zeta > 0 at tau = t/eps, both on one mesh; a sequence
    of t gives a list of pairs, one per t, from one sweep.

    Both integrands shrink like (eps/t)^3 (a') or faster (c'), so a fixed
    abs_tol would outgrow the values at large t; it is scaled by
    min(1, (eps/t)^4) and rel_tol sets the contract there.
    """
    ts = [float(ti) for ti in _scales(epsilon, np.atleast_1d(t))]
    sweep = integrate_biradial(_prime_integrand, [replace(
        spec, abs_tol=spec.abs_tol * min(1.0, (epsilon / ti) ** 4),
        grading=(((0.0, 0.0), 1.0), ((2.0 * (ti / epsilon), 0.0), 1.0)))
        for ti in ts], _HALF, params=[ti / epsilon for ti in ts])
    pairs = [(res[0].scaled(24.0 * sobolev_constants().S4 / epsilon),
              res[1].scaled(4.0 / epsilon)) for res in sweep]
    return pairs if np.ndim(t) else pairs[0]


def verify_monotonicity(epsilon: float, t_grid, spec: QuadratureSpec) -> MonotonicityReport:
    """Certify a' < 0 and c' < 0 on the grid by two independent estimators.

    (i) central differences of the curves on a frozen mesh, with a truncation
    allowance from the 4th-order difference; (ii) direct quadrature of the
    reduced derivative integrands.  Reports the first grid index violating
    negativity or cross-method agreement (-1 when clean).
    """
    t_grid = _scales(epsilon, t_grid)
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t grid must be strictly increasing")
    rows = []
    primes = derivative_quadratures(epsilon, t_grid, spec)
    # the frozen meshes raise if their adaptation missed the contract
    converged = all(aq.converged and cq.converged for aq, cq in primes)
    taus = t_grid / epsilon
    hs = np.maximum(1e-3, 1e-2 * taus)  # truncation against quadrature noise
    # at tau - 2h, tau - h, tau + h, tau + 2h: a, b, c, f, their errors
    points = _frozen_points(taus, hs, (-2, -1, 1, 2), spec)
    for (aq, cq), h, (m2, m1, p1, p2) in zip(primes, hs, points):
        second = (p1 - m1) / (2.0 * h)
        fourth = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
        fd, trunc = fourth / epsilon, np.abs(second - fourth) / epsilon
        noise = (p1 + m1) / (2.0 * h) / epsilon
        rows.append((fd[0], aq.value, trunc[0] + noise[4] + aq.error_estimate,
                     fd[2], cq.value, trunc[2] + noise[6] + cq.error_estimate))
    afd, aq, atol, cfd, cq, ctol = np.array(rows).T
    neg = (afd < 0.0) & (aq < 0.0) & (cfd < 0.0) & (cq < 0.0)
    cons = (np.abs(afd - aq) <= atol) & (np.abs(cfd - cq) <= ctol)
    bad = np.flatnonzero(~(neg & cons))
    return MonotonicityReport(
        t_grid=t_grid, a_prime_quad=aq, c_prime_quad=cq,
        all_negative=bool(neg.all()), cross_consistent=bool(cons.all()),
        first_violation=int(bad[0]) if len(bad) else -1, converged=converged)


# ----------------------------------------------------------------------------
# asymptotic coefficients
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    kind: str
    coefficient: float   # coefficient of (eps/t)^2 in the fitted model
    curvature: float     # coefficient of (eps/t)^4 (absorbs next order)
    residual: float      # rms misfit of the two-term model
    values: np.ndarray
    converged: bool      # every integral met its contract


def asymptotic_slope(kind: str, epsilon: float, t_sequence,
                     spec: QuadratureSpec) -> SlopeFit:
    """Least-squares fit  value = limit + coeff*(eps/t)^2 + c2*(eps/t)^4.

    kind 'GRAD' and 'U3V' fit the interaction integrals (limit 0); kind
    'f-curve' fits the Yamabe quotient of the pair (limit 6*sqrt(2)*S4).
    """
    t_sequence = _scales(epsilon, t_sequence)
    if len(t_sequence) < 3:
        raise ValueError("need at least three t values")
    ratios = t_sequence[1:] / t_sequence[:-1]
    if np.any(ratios < 2.0 - 1e-12) or t_sequence.min() / epsilon < 10.0:
        raise ValueError("need a geometric sequence with ratio >= 2 and "
                         "smallest t/eps >= 10")
    k = sobolev_constants()
    if kind == "f-curve":
        cur = curves(epsilon, t_sequence, spec)
        vals = cur.f
        converged = bool(cur.converged.all())
        limit = 6.0 * math.sqrt(2.0) * k.S4
    elif kind in ("GRAD", "U3V"):
        res = interaction_integral(kind, epsilon, t_sequence, spec)
        vals = np.array([r.value for r in res])
        converged = all(r.converged for r in res)
        limit = 0.0
    else:
        raise ValueError(f"unknown slope kind {kind!r}")
    x = (epsilon / t_sequence) ** 2
    design = np.stack([x, x * x], axis=1)
    coef, res, *_ = np.linalg.lstsq(design, vals - limit, rcond=None)
    rms = float(np.sqrt(np.mean((vals - limit - design @ coef) ** 2)))
    return SlopeFit(kind=kind, coefficient=float(coef[0]),
                    curvature=float(coef[1]), residual=rms, values=vals,
                    converged=converged)
