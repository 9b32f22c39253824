"""Double-bubble interaction curves and their certified properties.

For the symmetric pair U_+ = U_{eps, t e1}, U_- = U_{eps, -t e1} this module
computes

    a(t) = 6 int |grad(U_+ + U_-)|^2        (assembled as 12*S4 + 12*G(t))
    b(t) = (int (U_+ + U_-)^4)^(1/2)        (assembled as sqrt(2 + 8*I31 + 6*I22))
    c(t) = int U_+^2 U_-^2
    f(t) = a(t) / b(t)

where G = int grad U_+ . grad U_-, I31 = int U_+^3 U_-, I22 = c.  The self
terms are exact closed forms (int |grad U|^2 = S4, int U^4 = 1), so only the
small cross terms are quadratures and the error bars on f stay proportional
to the interaction size.  All integrals reduce to eps = 1 through the exact
scale invariance curve(eps, t) = curve(1, t/eps).

Derivative identities are checked with central differences evaluated on one
frozen quadrature mesh, which makes the quadrature error cancel in the
differences instead of being amplified by 1/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from cyl.constants import sobolev_constants
from cyl.quadrature import (IntegralResult, QuadratureSpec, build_frozen_mesh,
                            integrate_biradial)

__all__ = [
    "InteractionCurves",
    "MonotonicityReport",
    "SlopeFit",
    "interaction_integral",
    "curves",
    "verify_b_prime_identity",
    "verify_monotonicity",
    "asymptotic_slope",
    "KINDS",
]

KINDS = ("U3V", "GRAD", "U2V2")


def _profile(r2):
    return sobolev_constants().c4 / (1.0 + r2)


def _integrand(kind: str, tau: float):
    """Reduced (eps = 1) bi-radial integrand with centers at (+-tau, 0)."""
    c4 = sobolev_constants().c4

    if kind == "U3V":
        def F(z, p):
            rp = (z - tau) ** 2 + p * p
            rm = (z + tau) ** 2 + p * p
            return _profile(rp) ** 3 * _profile(rm)
    elif kind == "VU3":  # mirror, used for the symmetry invariant
        def F(z, p):
            rp = (z - tau) ** 2 + p * p
            rm = (z + tau) ** 2 + p * p
            return _profile(rp) * _profile(rm) ** 3
    elif kind == "U2V2":
        def F(z, p):
            rp = (z - tau) ** 2 + p * p
            rm = (z + tau) ** 2 + p * p
            return _profile(rp) ** 2 * _profile(rm) ** 2
    elif kind == "GRAD":
        def F(z, p):
            rp = (z - tau) ** 2 + p * p
            rm = (z + tau) ** 2 + p * p
            dot = z * z - tau * tau + p * p
            return 4.0 * c4 ** 2 * dot / ((1.0 + rp) ** 2 * (1.0 + rm) ** 2)
    else:
        raise ValueError(f"unknown interaction kind {kind!r}")
    return F


def _graded(spec: QuadratureSpec, tau: float) -> QuadratureSpec:
    return spec.with_grading(((tau, 0.0), 1.0), ((-tau, 0.0), 1.0))


def interaction_integral(kind: str, epsilon: float, t: float,
                         spec: QuadratureSpec) -> IntegralResult:
    """One of int U_+^3 U_-, int grad U_+ . grad U_-, int U_+^2 U_-^2 over R^4.

    Scale invariant in (epsilon, t); evaluated at eps = 1 with tau = t/eps.
    """
    if kind not in KINDS and kind != "VU3":
        raise ValueError(f"unknown interaction kind {kind!r}")
    if not (epsilon > 0.0 and t > 0.0):
        raise ValueError("epsilon and t must be positive")
    tau = t / epsilon
    return integrate_biradial(_integrand(kind, tau), _graded(spec, tau))


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


def _assemble_point(g: IntegralResult, i31: IntegralResult,
                    i22: IntegralResult):
    k = sobolev_constants()
    a = 12.0 * k.S4 + 12.0 * g.value
    a_err = 12.0 * g.error_estimate
    b2 = 2.0 + 8.0 * i31.value + 6.0 * i22.value
    b = math.sqrt(b2)
    b_err = (8.0 * i31.error_estimate + 6.0 * i22.error_estimate) / (2.0 * b)
    f = a / b
    f_err = abs(f) * (a_err / abs(a) + b_err / b)
    ok = g.converged and i31.converged and i22.converged
    return a, b, i22.value, f, a_err, b_err, i22.error_estimate, f_err, ok


def curves(epsilon: float, t_grid, spec: QuadratureSpec) -> InteractionCurves:
    """Evaluate a, b, c, f on a grid of center offsets t > 0."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0) or not epsilon > 0.0:
        raise ValueError("need epsilon > 0 and every t > 0")
    out = {key: [] for key in
           ("a", "b", "c", "f", "a_err", "b_err", "c_err", "f_err", "ok")}
    for t in t_grid:
        g = interaction_integral("GRAD", epsilon, float(t), spec)
        i31 = interaction_integral("U3V", epsilon, float(t), spec)
        i22 = interaction_integral("U2V2", epsilon, float(t), spec)
        row = _assemble_point(g, i31, i22)
        for key, val in zip(out, row):
            out[key].append(val)
    return InteractionCurves(
        epsilon=epsilon, t_grid=t_grid,
        a=np.array(out["a"]), b=np.array(out["b"]), c=np.array(out["c"]),
        f=np.array(out["f"]), a_err=np.array(out["a_err"]),
        b_err=np.array(out["b_err"]), c_err=np.array(out["c_err"]),
        f_err=np.array(out["f_err"]), converged=np.array(out["ok"], dtype=bool))


# ----------------------------------------------------------------------------
# frozen-mesh evaluation of nearby t values
# ----------------------------------------------------------------------------

def _combined_mesh(tau: float, spec: QuadratureSpec):
    """One mesh resolving all three interaction integrands near tau.

    The envelope must stay smooth (no abs of the sign-changing gradient
    integrand), so the gradient part is dominated by the rational majorant
    with |z^2 - tau^2 + rho^2| <= 1 + z^2 + tau^2 + rho^2.
    """
    k = sobolev_constants()
    c4 = k.c4

    def combined(z, p):
        rp = (z - tau) ** 2 + p * p
        rm = (z + tau) ** 2 + p * p
        grad_env = 4.0 * c4 ** 2 * (1.0 + z * z + tau * tau + p * p) \
            / ((1.0 + rp) ** 2 * (1.0 + rm) ** 2)
        return (grad_env / k.S4
                + _integrand("U3V", tau)(z, p)
                + _integrand("U2V2", tau)(z, p))

    return build_frozen_mesh(combined, _graded(spec, tau))


def _mesh_values(mesh, tau: float):
    g = mesh.evaluate(_integrand("GRAD", tau))
    i31 = mesh.evaluate(_integrand("U3V", tau))
    i22 = mesh.evaluate(_integrand("U2V2", tau))
    return _assemble_point(g, i31, i22)


def verify_b_prime_identity(epsilon: float, t: float, h_fd: float,
                            spec: QuadratureSpec) -> float:
    """Residual of  b' = (2/b) * (a'/(6 S4) + (3/2) c')  at one t.

    Primes are central differences with step h_fd, evaluated on a frozen
    quadrature mesh so the finite differences see smooth values.
    """
    if not (t > h_fd > 0.0):
        raise ValueError("need t > h_fd > 0")
    k = sobolev_constants()
    tau, h = t / epsilon, h_fd / epsilon
    mesh = _combined_mesh(tau, spec)
    a0, b0, c0, *_ = _mesh_values(mesh, tau)
    ap, bp, cp, *_ = _mesh_values(mesh, tau + h)
    am, bm, cm, *_ = _mesh_values(mesh, tau - h)
    db = (bp - bm) / (2.0 * h)
    da = (ap - am) / (2.0 * h)
    dc = (cp - cm) / (2.0 * h)
    # reduced-variable residual equals epsilon * (residual in original t)
    return abs(db - (2.0 / b0) * (da / (6.0 * k.S4) + 1.5 * dc)) / epsilon


@dataclass(frozen=True)
class MonotonicityReport:
    t_grid: np.ndarray
    a_prime_quad: np.ndarray
    c_prime_quad: np.ndarray
    all_negative: bool
    cross_consistent: bool
    first_violation: int  # grid index, -1 when clean
    converged: bool       # every integral met its contract


def _a_prime_integrand(tau: float):
    # reduced form of the sign-definite bracket for a'(t):
    # 24 S4 int (U'(w)/w) zeta [U^3(near) - U^3(far)],  w^2 = zeta^2 + rho^2
    c4 = sobolev_constants().c4

    def F(z, p):
        w2 = z * z + p * p
        uprime_over_w = -2.0 * c4 / (1.0 + w2) ** 2
        near = _profile((z - 2.0 * tau) ** 2 + p * p) ** 3
        far = _profile((z + 2.0 * tau) ** 2 + p * p) ** 3
        return np.where(z > 0.0, uprime_over_w * z * (near - far), 0.0)

    return F


def _c_prime_integrand(tau: float):
    c4 = sobolev_constants().c4

    def F(z, p):
        w2 = z * z + p * p
        uprime_over_w = -2.0 * c4 / (1.0 + w2) ** 2
        u = _profile(w2)
        near = _profile((z - 2.0 * tau) ** 2 + p * p) ** 2
        far = _profile((z + 2.0 * tau) ** 2 + p * p) ** 2
        return np.where(z > 0.0, uprime_over_w * z * u * (near - far), 0.0)

    return F


def _derivative_integral(integrand, epsilon: float, t: float,
                         spec: QuadratureSpec) -> IntegralResult:
    """The reduced derivative integral over zeta > 0 at tau = t/eps.

    Both derivative integrands are sign-definite and shrink like (eps/t)^3
    (a') or faster (c'), so a fixed abs_tol would outgrow the value at large
    t; it is scaled by min(1, (eps/t)^4) and rel_tol sets the contract there.
    """
    tau = t / epsilon
    grading = (((0.0, 0.0), 1.0), ((2.0 * tau, 0.0), 1.0))
    spec = replace(spec, abs_tol=spec.abs_tol * min(1.0, (epsilon / t) ** 4))
    return integrate_biradial(integrand(tau), spec.with_grading(*grading),
                              zeta_domain=(0.0, math.inf))


def a_prime_quadrature(epsilon: float, t: float, spec: QuadratureSpec) -> IntegralResult:
    """a'(t) by direct quadrature of the reduced sign-definite integrand."""
    res = _derivative_integral(_a_prime_integrand, epsilon, t, spec)
    return res.scaled(24.0 * sobolev_constants().S4 / epsilon)


def c_prime_quadrature(epsilon: float, t: float, spec: QuadratureSpec) -> IntegralResult:
    """c'(t) by direct quadrature of the reduced sign-definite integrand."""
    res = _derivative_integral(_c_prime_integrand, epsilon, t, spec)
    return res.scaled(4.0 / epsilon)


def _fd_step(t: float) -> float:
    # documented default: balances truncation against quadrature noise
    return max(1e-3, 1e-2 * t)


def verify_monotonicity(epsilon: float, t_grid, spec: QuadratureSpec) -> MonotonicityReport:
    """Certify a' < 0 and c' < 0 on the grid by two independent estimators.

    (i) central differences of the curves on a frozen mesh, with a truncation
    allowance from the 4th-order difference; (ii) direct quadrature of the
    reduced derivative integrands.  Reports the first grid index violating
    negativity or cross-method agreement (-1 when clean).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t grid must be strictly increasing")
    rows = {key: [] for key in ("afd", "aq", "atol", "cfd", "cq", "ctol")}
    first = -1
    converged = True
    for i, t in enumerate(t_grid):
        tau = t / epsilon
        h = _fd_step(tau)
        mesh = _combined_mesh(tau, spec)
        vals = {s: _mesh_values(mesh, tau + s * h) for s in (-2, -1, 1, 2)}
        errs = {s: vals[s][4:7] for s in vals}

        def d1(idx):
            second = (vals[1][idx] - vals[-1][idx]) / (2.0 * h)
            fourth = (-vals[2][idx] + 8.0 * vals[1][idx]
                      - 8.0 * vals[-1][idx] + vals[-2][idx]) / (12.0 * h)
            return fourth / epsilon, abs(second - fourth) / epsilon

        afd, atrunc = d1(0)
        cfd, ctrunc = d1(2)
        aq = a_prime_quadrature(epsilon, float(t), spec)
        cq = c_prime_quadrature(epsilon, float(t), spec)
        # the frozen mesh itself raises if its adaptation missed the contract
        converged = converged and aq.converged and cq.converged
        anoise = (errs[1][0] + errs[-1][0]) / (2.0 * h) / epsilon
        cnoise = (errs[1][2] + errs[-1][2]) / (2.0 * h) / epsilon
        atol = atrunc + anoise + aq.error_estimate
        ctol = ctrunc + cnoise + cq.error_estimate
        rows["afd"].append(afd)
        rows["aq"].append(aq.value)
        rows["atol"].append(atol)
        rows["cfd"].append(cfd)
        rows["cq"].append(cq.value)
        rows["ctol"].append(ctol)
        bad = (afd >= 0.0 or aq.value >= 0.0 or cfd >= 0.0 or cq.value >= 0.0
               or abs(afd - aq.value) > atol or abs(cfd - cq.value) > ctol)
        if bad and first < 0:
            first = i
    neg = (np.array(rows["afd"]) < 0).all() and (np.array(rows["aq"]) < 0).all() \
        and (np.array(rows["cfd"]) < 0).all() and (np.array(rows["cq"]) < 0).all()
    cons = np.all(np.abs(np.array(rows["afd"]) - np.array(rows["aq"]))
                  <= np.array(rows["atol"])) and \
        np.all(np.abs(np.array(rows["cfd"]) - np.array(rows["cq"]))
               <= np.array(rows["ctol"]))
    return MonotonicityReport(
        t_grid=t_grid, a_prime_quad=np.array(rows["aq"]),
        c_prime_quad=np.array(rows["cq"]),
        all_negative=bool(neg), cross_consistent=bool(cons),
        first_violation=first, converged=converged)


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
    t_sequence = np.asarray(t_sequence, dtype=float)
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
        res = [interaction_integral(kind, epsilon, float(t), spec)
               for t in t_sequence]
        vals = np.array([r.value for r in res])
        converged = all(r.converged for r in res)
        limit = 0.0
    else:
        raise ValueError(f"unknown slope kind {kind!r}")
    x = (epsilon / t_sequence) ** 2
    design = np.stack([x, x * x], axis=1)
    coef, res, *_ = np.linalg.lstsq(design, vals - limit, rcond=None)
    fitted = design @ coef
    rms = float(np.sqrt(np.mean((vals - limit - fitted) ** 2)))
    return SlopeFit(kind=kind, coefficient=float(coef[0]),
                    curvature=float(coef[1]), residual=rms, values=vals,
                    converged=converged)
