"""The acceptance suite: every quantitative target of the laboratory as one
pass/fail check with pinned tolerances.

Each check is registered by ``_criterion``, which numbers it by its place in
``ALL_CHECKS``, times it and wraps its (passed, detail) in a CheckResult, or
a FAIL naming the exception when the body raises;
``run_acceptance`` executes a selection in order and reports one line per
criterion.  The same definitions back the
``cyl accept`` subcommand and the pytest acceptance module, so the gate is a
single source of truth; a command that runs a criterion's experiment takes
its definition from the shared section below.
"""

from __future__ import annotations

import functools
import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from cyl.config import RunConfig
from cyl.constants import energy_level, sobolev_constants
from cyl.quadrature import QuadratureSpec, integrate_radial

__all__ = ["CheckResult", "ALL_CHECKS", "run_acceptance"]


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{self.index:2d}] {tag}  {self.name}: {self.detail} " \
               f"({self.seconds:.1f}s)"


ALL_CHECKS = []


def _criterion(name: str):
    """Register a check body as the next criterion: its index is its place
    in ALL_CHECKS, and the check times the body, which returns
    (passed, detail), into a CheckResult; a body that raises fails with the
    exception as its detail, so the later criteria still run."""
    def register(body):
        index = len(ALL_CHECKS) + 1

        @functools.wraps(body)
        def check(cfg: RunConfig) -> CheckResult:
            t0 = time.perf_counter()
            try:
                passed, detail = body(cfg)
            except Exception as exc:
                traceback.print_exc()
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CheckResult(index, name, bool(passed), detail,
                               time.perf_counter() - t0)

        ALL_CHECKS.append(check)
        return check

    return register


# ------------------------------------------------ experiments the cli shares

def slope_fits() -> list:
    """(fit, target) of the GRAD, U3V and f-curve far-field slopes."""
    from cyl.interaction import asymptotic_slope
    k = sobolev_constants()
    runs = (("GRAD", [12.5, 25.0, 50.0, 100.0], k.B),
            ("U3V", [12.5, 25.0, 50.0, 100.0], 0.75),
            ("f-curve", [125.0, 250.0, 500.0, 1000.0],
             -6.0 * math.sqrt(2.0) * k.B))
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-15)
    return [(asymptotic_slope(kind, 1.0, ts, spec), target)
            for kind, ts, target in runs]


def double_fit(cfg: RunConfig):
    """The fit of A on the DOUBLE leg (mu = 1) over epsilon_list_double."""
    from cyl.minmax import fit_expansion_A
    return fit_expansion_A(cfg, cfg.epsilon_list_double, 1.0,
                           spec=QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))


def gauge_example() -> tuple:
    """f, a linear family, f's gauge family and the sampled link points."""
    from cyl.geometry.links import (LinkFunction, LinkTensorFamily,
                                    sphere_points)
    f = LinkFunction.quadratic(np.diag([0.3, -0.1, -0.1, -0.1]))
    fam = LinkTensorFamily.linear_perturbation(
        lambda z: np.diag([0.1, -0.2, 0.05, 0.0]))
    return f, fam, LinkTensorFamily.gauge_killing(f), sphere_points(8, 2)


def centred_flat_mass(cfg: RunConfig) -> dict:
    """Mass of the flat ball of radius green_delta (exact: -1/green_delta^2)
    as a row of ``mass_divergence_sweep``, its product A_q delta^2."""
    from cyl.geometry.fields import FlatField
    from cyl.green import GreenProblem, extract_mass, solve_dirichlet_green
    delta = cfg.green_delta
    ev = solve_dirichlet_green(GreenProblem(FlatField(), np.zeros(4), delta))
    exp = extract_mass(ev, np.zeros(4), eps0=0.05 * delta)
    return {"t": 0.0, "A_q": exp.A_q, "product": exp.A_q * delta ** 2,
            "error": exp.error + ev.error_estimate,
            "solver_error": ev.error_estimate}


def round_parametrix() -> dict:
    """The parametrix residual law on the round chart at t = 0.1, 0.2, 0.4."""
    from cyl.green import parametrix_sweep
    return parametrix_sweep([0.1, 0.2, 0.4])


def round_cnc(h_fd: float) -> dict:
    """CNC residuals of the round normal chart, factor cut off at 0.4."""
    from cyl.geometry.cnc import verify_cnc
    from cyl.geometry.fields import WarpedRadialField, round_profile
    return verify_cnc(WarpedRadialField(round_profile()), t_cutoff=0.4,
                      h_fd=h_fd)


# ----------------------------------------------------------------------- 1

@_criterion("closed-form constants from the normalization integral")
def check_constants(cfg: RunConfig):
    t0 = time.perf_counter()
    k = sobolev_constants()
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16)
    norm = integrate_radial(
        lambda r: 2.0 * math.pi ** 2 * r ** 3 / (1.0 + r * r) ** 4,
        (0.0, math.inf), spec).expect("bubble normalization")
    c4_num = norm.value ** -0.25
    s4_num = 8.0 / c4_num ** 2
    a_num = 6.0 * math.pi ** 2 * c4_num ** 2
    b_num = math.pi ** 2 * c4_num ** 2
    errs = {
        "c4": abs(c4_num - (6.0 / math.pi ** 2) ** 0.25) / k.c4,
        "S4": abs(s4_num - 8.0 * math.pi / math.sqrt(6.0)) / k.S4,
        "A": abs(a_num - 6.0 * math.pi * math.sqrt(6.0)) / k.A,
        "B": abs(b_num - math.pi * math.sqrt(6.0)) / k.B,
    }
    twelve = all(v < 1e-12 for v in errs.values())
    ratio_exact = abs(k.B / k.S4 - 0.75) < 5e-16
    dt = time.perf_counter() - t0
    ok = twelve and ratio_exact and dt < 1.0
    return ok, (f"max rel err {max(errs.values()):.2e}, B/S4-3/4 = "
                f"{k.B / k.S4 - 0.75:.1e}, runtime {dt:.3f}s")


# ----------------------------------------------------------------------- 2

@_criterion("double-bubble quotient bracket (6*S4, 6*sqrt(2)*S4)")
def check_bracket(cfg: RunConfig):
    from cyl.interaction import curves
    grid = np.asarray(cfg.t_grid, dtype=float)
    cur = curves(1.0, grid, cfg.spec())
    lo, hi = cur.bracket_margins()
    ok = bool(cur.converged.all() and cur.in_bracket().all())
    return ok, (f"{len(grid)} points in [{grid.min():g}, {grid.max():g}], "
                f"min lower margin {np.min(lo):.3e}, min upper margin "
                f"{np.min(hi):.3e}, max 3*err {np.max(3 * cur.f_err):.1e}")


# ----------------------------------------------------------------------- 3

@_criterion("interaction slope coefficients")
def check_slopes(cfg: RunConfig):
    fits = slope_fits()
    (fit_g, target_g), (fit_u, target_u), (fit_f, target_f) = fits
    rel_g = abs(fit_g.coefficient - target_g) / target_g
    rel_u = abs(fit_u.coefficient - target_u) / target_u
    rel_f = abs(fit_f.coefficient - target_f) / abs(target_f)
    unconverged = sum(not fit.converged for fit, _ in fits)
    ok = rel_g < 0.02 and rel_u < 0.02 and rel_f < 0.05 and unconverged == 0
    return ok, (f"grad {fit_g.coefficient:.5f} vs {target_g:.5f} "
                f"({rel_g:.2%}), u3v {fit_u.coefficient:.5f} vs {target_u} "
                f"({rel_u:.2%}), f-curve {fit_f.coefficient:.3f} vs "
                f"{target_f:.3f} ({rel_f:.2%}); "
                f"{unconverged} of {len(fits)} fits unconverged")


# ----------------------------------------------------------------------- 4

@_criterion("b' identity residual")
def check_b_prime(cfg: RunConfig):
    from cyl.interaction import verify_b_prime_identity
    spec = cfg.spec()
    res = {t: verify_b_prime_identity(1.0, t, 1e-3, spec) for t in (0.5, 2.0)}
    half = verify_b_prime_identity(1.0, 2.0, 5e-4, spec)
    shrink = res[2.0] / half if half > 0 else math.inf
    ok = all(v < 1e-5 for v in res.values()) and shrink > 2.5
    return ok, (f"residuals t=0.5: {res[0.5]:.2e}, t=2: {res[2.0]:.2e}; "
                f"halving shrink x{shrink:.1f}")


# ----------------------------------------------------------------------- 5

@_criterion("a' < 0 and c' < 0 by both estimators")
def check_monotonicity(cfg: RunConfig):
    from cyl.interaction import verify_monotonicity
    rep = verify_monotonicity(1.0, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
                              cfg.spec().scaled(10.0))
    ok = (rep.all_negative and rep.cross_consistent
          and rep.first_violation < 0 and rep.converged)
    return ok, (f"a' in [{rep.a_prime_quad.min():.3f}, "
                f"{rep.a_prime_quad.max():.3f}], "
                f"c' in [{rep.c_prime_quad.min():.3f}, "
                f"{rep.c_prime_quad.max():.3f}], "
                f"first violation index {rep.first_violation}, integrals "
                f"{'converged' if rep.converged else 'unconverged'}")


# ----------------------------------------------------------------------- 6

@_criterion("conformal normal coordinates exact on the round chart")
def check_cnc(cfg: RunConfig):
    res, res2 = round_cnc(1e-3), round_cnc(5e-4)
    keys = ("R", "Ric", "dR", "sym_dRic")
    below = all(res[kk] < 1e-3 for kk in keys)
    ratio = res["R"] / max(res2["R"], 1e-30)
    decays = ratio > 2.5 or res2["R"] < 1e-10
    ok = below and decays
    return ok, (f"|R| {res['R']:.2e}, |Ric| {res['Ric']:.2e}, "
                f"|dR| {res['dR']:.2e}, |sym dRic| {res['sym_dRic']:.2e}; "
                f"halving ratio {ratio:.1f}")


# ----------------------------------------------------------------------- 7

@_criterion("first-order gauge identity and orbifold gauge")
def check_gauge(cfg: RunConfig):
    from cyl.geometry.links import verify_first_order_identity
    f, fam, gauge, pts = gauge_example()
    r_h = verify_first_order_identity(f, fam, 2e-3, points=pts)
    r_h2 = verify_first_order_identity(f, fam, 1e-3, points=pts)
    r_post = verify_first_order_identity(f, gauge, 1e-3, points=pts)
    ratio = r_h / max(r_h2, 1e-30)
    # the orbifold condition: both families are even, h(s, -z) = h(s, z)
    even = all(np.max(np.abs(h.at(1e-3, -z) - h.at(1e-3, z))) <= 1e-12
               for h in (fam, gauge) for z in pts)
    ok = 2.0 < ratio < 8.0 and r_post < 1e-3 and even
    return ok, (f"residual {r_h2:.2e} at h=1e-3, halving ratio {ratio:.1f}, "
                f"post-gauge h'(0) norm {r_post:.2e}")


# ----------------------------------------------------------------------- 8

@_criterion("Green masses: centered ball and 1/(4t^2) divergence")
def check_green_masses(cfg: RunConfig):
    from cyl.green import mass_divergence_sweep
    centered_err = abs(centred_flat_mass(cfg)["A_q"] + 1.0 / cfg.green_delta ** 2)
    tmax = 0.05 * cfg.green_delta
    grid = [t for t in cfg.green_t_grid if t <= tmax + 1e-12] or [tmax, tmax / 2]
    flat_rows = mass_divergence_sweep("flat-cone", grid, cfg.green_delta)
    foot_rows = mass_divergence_sweep("football", grid, cfg.football_delta)
    pf = flat_rows[-1]["product"]
    pb = foot_rows[-1]["product"]
    ok = centered_err < 1e-6 and 0.95 <= pf <= 1.05 and 0.95 <= pb <= 1.05
    return ok, (f"centered mass err {centered_err:.1e}; A_q*4t^2 at "
                f"t={grid[-1]:g}: flat cone {pf:.4f}, football {pb:.4f}")


# ----------------------------------------------------------------------- 9

@_criterion("parametrix residual law sup ~ C t^-2")
def check_parametrix(cfg: RunConfig):
    sweep = round_parametrix()
    ok = -2.3 <= sweep["exponent"] <= -1.7
    return ok, (f"fitted exponent {sweep['exponent']:.3f}, sups "
                + ", ".join(f"{s:.3e}" for s in sweep["sup"]))


# ----------------------------------------------------------------------- 10

@_criterion("competitor path stays strictly below 6*S4")
def check_path(cfg: RunConfig):
    from cyl.minmax import build_path
    k = sobolev_constants()
    prof = build_path(cfg)
    margins = 6.0 * k.S4 - prof.Q
    min_margin = float(np.min(margins))
    worst = float(np.min(margins - 3.0 * prof.Q_err))
    q0, q1 = prof.endpoint_values()
    endpoints_ok = abs(q0 - k.Ys) < 0.5 and abs(q1 - k.Ys) < 0.5
    # a point whose integrals missed their contract certifies nothing
    unconverged = int(np.count_nonzero(~prof.converged))
    ok = bool(min_margin > 0.0 and worst > 0.0 and endpoints_ok
              and unconverged == 0)
    return ok, (f"max Q {prof.max_Q:.9f} < 6*S4 {6 * k.S4:.9f}, min margin "
                f"{min_margin:.2e} (>= 3*err: {worst:.2e} slack), endpoints "
                f"{q0:.4f}/{q1:.4f} vs Y4/sqrt2 {k.Ys:.4f}, "
                f"{unconverged} unconverged")


# ----------------------------------------------------------------------- 11

@_criterion("expansion constant A on the DOUBLE and INTERP legs")
def check_expansion_fit(cfg: RunConfig):
    from cyl.minmax import fit_expansion_A
    k = sobolev_constants()
    fd = double_fit(cfg)
    fi = fit_expansion_A(cfg, cfg.epsilon_list, 1.5)  # INTERP at lam = 0.5
    target_exp = 2.0 * (1.0 - cfg.alpha)
    rel_d = abs(fd.A_hat - k.A) / k.A
    rel_i = abs(fi.A_hat - k.A) / k.A
    rel_e = max(abs(fd.exponent_free - target_exp),
                abs(fi.exponent_free - target_exp)) / target_exp
    # a fit point whose integrals missed their contract certifies nothing
    unconverged = int(np.count_nonzero(~fd.converged)
                      + np.count_nonzero(~fi.converged))
    ok = rel_d < 0.10 and rel_i < 0.10 and rel_e < 0.10 and unconverged == 0
    return ok, (f"A_hat double {fd.A_hat:.3f} ({rel_d:.1%}), interp "
                f"{fi.A_hat:.3f} ({rel_i:.1%}) vs A {k.A:.3f}; free exponents "
                f"{fd.exponent_free:.3f}/{fi.exponent_free:.3f} vs "
                f"{target_exp}; {unconverged} of "
                f"{len(fd.converged) + len(fi.converged)} fit points "
                f"unconverged")


# ----------------------------------------------------------------------- 12

@_criterion("energy quantization: two singular bubbles cost one regular "
            "bubble")
def check_energy_levels(cfg: RunConfig):
    k = sobolev_constants()
    e10 = energy_level(1, 0)
    e01 = energy_level(0, 1)
    e20 = energy_level(2, 0)
    ok = (e10 < e01 and abs(e20 - e01) < 1e-12
          and abs(e10 - k.Ys) < 1e-12 and abs(e01 - k.Y4) < 1e-12)
    return ok, (f"E(1,0) {e10:.6f} < E(0,1) {e01:.6f}; "
                f"E(2,0) - E(0,1) = {e20 - e01:.1e}")


def run_acceptance(cfg: RunConfig, indices=None, printer=print) -> list:
    """Run the selected criteria in order, print one line each, and return
    the CheckResult list."""
    results = []
    for i, fn in enumerate(ALL_CHECKS, start=1):
        if indices is not None and i not in indices:
            continue
        res = fn(cfg)
        results.append(res)
        printer(res.line())
    return results
