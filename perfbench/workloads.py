"""The four benchmark workloads: seeded inputs, one pass, and the paper gate
each operation's output must pass.

Every workload is a ``Workload`` with

* ``inputs(rng)``   -- the inputs of one pass, drawn from ``rng``;
* ``warmup(rng)``   -- one call on an input drawn from a separate stream;
* ``run(inputs)``   -- one pass through the library; returns plain outputs;
* ``check(out)``    -- one ``(op, passed, detail)`` per operation;
* ``quantities(out)`` -- ``{name: (value, error bar)}`` compared with the
  committed reference on the default seed.

The library is reached only through module attributes (``minmax.build_path``
and so on), so the wrappers that ``tracing.install`` puts there see every
call, including the ones made from this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import cyl.green as green
import cyl.interaction as interaction
import cyl.minmax as minmax
import cyl.quadrature as quadrature
from cyl.constants import sobolev_constants
from cyl.geometry.fields import FlatField

S4 = sobolev_constants().S4
B = sobolev_constants().B

# the tolerances of the acceptance suite (cyl.config.RunConfig defaults)
SPEC = quadrature.QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
SLOPE_SPEC = quadrature.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-15)
# quantities without an error bar must repeat to this relative precision
PLAIN_REL = 1e-9
# the b' residual is a difference quotient; its reference band is 1e-4 of the
# 1e-5 gate
BPRIME_BAND = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    warmup: object
    run: object
    check: object
    quantities: object


def _dyadic(rng, lo, hi):
    """Uniform in [lo + 0.01, hi - 0.01] on a 2^-20 grid, so 5 - mu and the
    leg parameters derived from it are exact in floating point."""
    x = rng.uniform(lo + 0.01, hi - 0.01)
    return round(x * 2.0 ** 20) / 2.0 ** 20


# ----------------------------------------------------------------------------
# path-legs: criterion 10 in miniature
# ----------------------------------------------------------------------------

def _path_inputs(rng):
    mus = [_dyadic(rng, lo, hi) for lo, hi in ((0.0, 1.0), (1.0, 2.0), (2.0, 2.5))]
    return {"mu": sorted(mus + [5.0 - m for m in mus])}


def _path_warmup(rng):
    minmax.build_path(minmax.PathConfig(), mu_grid=[_dyadic(rng, 0.0, 1.0)])


def _path_run(inp):
    prof = minmax.build_path(minmax.PathConfig(), mu_grid=inp["mu"])
    return {"mu": [float(m) for m in prof.mu], "Q": prof.Q.tolist(),
            "Q_err": prof.Q_err.tolist(), "legs": list(prof.legs)}


def _path_check(out):
    mu, Q, E = out["mu"], out["Q"], out["Q_err"]
    ops = []
    for i, m in enumerate(mu):
        j = mu.index(5.0 - m)
        below = Q[i] + 3.0 * E[i] < 6.0 * S4
        mirror = abs(Q[i] - Q[j]) <= E[i] + E[j]
        ops.append((f"Q({m:.6f}) {out['legs'][i]}", below and mirror,
                    f"6*S4 - Q - 3err = {6.0 * S4 - Q[i] - 3.0 * E[i]:.3e}, "
                    f"|Q(mu) - Q(5-mu)| = {abs(Q[i] - Q[j]):.1e} "
                    f"vs {E[i] + E[j]:.1e}"))
    return ops


def _path_quantities(out):
    return {f"Q({m!r})": (q, e) for m, q, e in zip(out["mu"], out["Q"], out["Q_err"])}


# ----------------------------------------------------------------------------
# curves: interaction layer, bi-radial engine, frozen meshes, slope fit
# ----------------------------------------------------------------------------

def _stratified(rng, lo, hi, n, log=False):
    """One uniform draw in each of n equal bins of [lo, hi] (of log t when
    ``log``): every pass covers the whole range, so the work per pass varies
    little between seeds."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    x = a + (b - a) * (np.arange(n) + rng.uniform(size=n)) / n
    return (np.exp(x) if log else x).tolist()


def _curves_inputs(rng):
    t0 = rng.uniform(12.0, 20.0)
    return {
        "t_grid": _stratified(rng, 0.1, 1000.0, 15, log=True),
        "bprime_t": _stratified(rng, 0.3, 4.0, 2, log=True),
        "slope_t": [t0, 2.0 * t0, 4.0 * t0, 8.0 * t0],
    }


def _curves_warmup(rng):
    interaction.curves(1.0, [float(np.exp(rng.uniform(math.log(0.1), math.log(1000.0))))], SPEC)


def _curves_run(inp):
    cur = interaction.curves(1.0, inp["t_grid"], SPEC)
    bprime = [interaction.verify_b_prime_identity(1.0, t, 1e-3, SPEC)
              for t in inp["bprime_t"]]
    fit = interaction.asymptotic_slope("GRAD", 1.0, inp["slope_t"], SLOPE_SPEC)
    return {"t": list(inp["t_grid"]), "f": cur.f.tolist(), "f_err": cur.f_err.tolist(),
            "bprime_t": list(inp["bprime_t"]), "bprime": bprime,
            "slope": fit.coefficient}


def _curves_check(out):
    lo, hi = 6.0 * S4, 6.0 * math.sqrt(2.0) * S4
    ops = []
    for t, f, e in zip(out["t"], out["f"], out["f_err"]):
        ops.append((f"f({t:.4g})", lo + 3.0 * e < f < hi - 3.0 * e,
                    f"margins {f - lo:.3e}/{hi - f:.3e} vs 3err {3.0 * e:.1e}"))
    for t, r in zip(out["bprime_t"], out["bprime"]):
        ops.append((f"b'({t:.4g})", r < 1e-5, f"residual {r:.2e}"))
    rel = abs(out["slope"] - B) / B
    ops.append(("GRAD slope", rel < 0.02, f"{out['slope']:.5f} vs B ({rel:.2%})"))
    return ops


def _curves_quantities(out):
    q = {f"f({t!r})": (f, e) for t, f, e in zip(out["t"], out["f"], out["f_err"])}
    for t, r in zip(out["bprime_t"], out["bprime"]):
        q[f"bprime({t!r})"] = (r, BPRIME_BAND)
    q["slope"] = (out["slope"], 0.0)
    return q


# ----------------------------------------------------------------------------
# green-masses: the solve-heavy use of the green layer
# ----------------------------------------------------------------------------

def _masses_inputs(rng):
    return {"t": _stratified(rng, 0.02, 0.05, 3)[::-1],
            "centred_delta": float(rng.uniform(0.8, 1.2))}


def _masses_warmup(rng):
    green.mass_divergence_sweep("flat-cone", [float(rng.uniform(0.02, 0.05))], 1.0)


def _masses_run(inp):
    flat = green.mass_divergence_sweep("flat-cone", inp["t"], 1.0)
    foot = green.mass_divergence_sweep("football", inp["t"], 0.8)
    delta = inp["centred_delta"]
    ev = green.solve_dirichlet_green(green.GreenProblem(FlatField(), np.zeros(4), delta))
    exp = green.extract_mass(ev, np.zeros(4), eps0=0.05 * delta)
    rows = [dict(r, model=m) for m, rs in (("flat", flat), ("football", foot)) for r in rs]
    return {"rows": rows, "centred_delta": delta,
            "centred_A": exp.A_q, "centred_err": exp.error}


def _masses_check(out):
    ops = []
    for r in out["rows"]:
        ops.append((f"{r['model']} A_q*4t^2 at t={r['t']:.4g}",
                    0.95 <= r["product"] <= 1.05, f"{r['product']:.5f}"))
    delta = out["centred_delta"]
    err = abs(out["centred_A"] + 1.0 / delta ** 2)
    ops.append((f"centred mass delta={delta:.4g}", err < 1e-6, f"|A + 1/delta^2| = {err:.1e}"))
    return ops


def _masses_quantities(out):
    q = {f"{r['model']}({r['t']!r})": (r["A_q"], r["error"]) for r in out["rows"]}
    q["centred"] = (out["centred_A"], out["centred_err"])
    return q


# ----------------------------------------------------------------------------
# green-weakform: the evaluation-heavy use of the green layer
# ----------------------------------------------------------------------------

BUMPS_PER_PASS = 3


def _weak_inputs(rng):
    bumps = [{"amps": rng.normal(size=3).tolist(),
              "ls": rng.integers(0, 4, size=3).tolist(),
              "r0": float(rng.uniform(0.5, 0.8))} for _ in range(BUMPS_PER_PASS)]
    return {"pole": float(rng.uniform(0.08, 0.2)), "bumps": bumps}


def _solve(pole):
    return green.solve_dirichlet_green(
        green.GreenProblem(FlatField(), np.array([pole, 0.0, 0.0, 0.0]), 1.0))


def _weak_warmup(rng):
    _solve(float(rng.uniform(0.08, 0.2)))


def _zonal_bump(amps, ls, r0):
    """psi = sum a_l b(r) U_l(cos gamma), b = (1 - (r/r0)^2)^3, and L psi on
    the flat ball, L = -6 Laplacian."""

    def radial(r):
        x = np.clip(r / r0, 0.0, 1.0)
        b = (1.0 - x ** 2) ** 3
        b1 = -6.0 * x * (1.0 - x ** 2) ** 2 / r0
        b2 = (-6.0 * (1.0 - x ** 2) ** 2 + 24.0 * x ** 2 * (1.0 - x ** 2)) / r0 ** 2
        return b, b1, b2

    def psi(r, gamma):
        U = green.chebyshev_u(4, np.cos(gamma))
        b, _, _ = radial(r)
        return sum(a * b * U[l] for a, l in zip(amps, ls))

    def Lpsi(r, gamma):
        U = green.chebyshev_u(4, np.cos(gamma))
        b, b1, b2 = radial(r)
        return sum(-6.0 * a * (b2 + 3.0 / r * b1 - l * (l + 2) * b / r ** 2) * U[l]
                   for a, l in zip(amps, ls))

    return psi, Lpsi


def _weak_run(inp):
    pole = inp["pole"]
    ev = _solve(pole)
    spec = SPEC.with_grading(((pole, 0.0), 0.05))
    rows = []
    for bump in inp["bumps"]:
        psi, Lpsi = _zonal_bump(bump["amps"], bump["ls"], bump["r0"])

        def integrand(r, gamma):
            pts = np.stack([r * np.cos(gamma), r * np.sin(gamma),
                            np.zeros_like(r), np.zeros_like(r)], axis=-1)
            return ev.value(pts.reshape(-1, 4)).reshape(r.shape) * Lpsi(r, gamma)

        res = quadrature.integrate_axisym_sphere(
            integrand, spec, theta_domain=(1e-9, 1.0), radial_weight=lambda r: r ** 3)
        rows.append({"value": res.value, "error": res.error_estimate,
                     "target": float(green.KAPPA * np.ravel(psi(pole, 0.0))[0])})
    return {"pole": pole, "rows": rows}


def _weak_check(out):
    ops = []
    for k, r in enumerate(out["rows"]):
        gap = abs(r["value"] - r["target"])
        ops.append((f"weak form bump {k}", gap < 5e-4 * (1.0 + abs(r["target"])),
                    f"|int G L psi - 24 pi^2 psi(pole)| = {gap:.2e}"))
    return ops


def _weak_quantities(out):
    return {f"bump{k}": (r["value"], r["error"]) for k, r in enumerate(out["rows"])}


WORKLOADS = {w.name: w for w in (
    Workload("path-legs", _path_inputs, _path_warmup, _path_run, _path_check,
             _path_quantities),
    Workload("curves", _curves_inputs, _curves_warmup, _curves_run,
             _curves_check, _curves_quantities),
    Workload("green-masses", _masses_inputs, _masses_warmup, _masses_run,
             _masses_check, _masses_quantities),
    Workload("green-weakform", _weak_inputs, _weak_warmup, _weak_run,
             _weak_check, _weak_quantities),
)}


def reference_mismatches(now: dict, ref: dict) -> list:
    """Names whose value moved by more than the combined error bars (or, for
    a quantity without one, by more than PLAIN_REL relative)."""
    bad = []
    for key, (val, err) in ref.items():
        if key not in now:
            bad.append(f"{key}: missing")
            continue
        v, e = now[key]
        allowed = e + err + PLAIN_REL * max(abs(val), 1e-300)
        if not abs(v - val) <= allowed:
            bad.append(f"{key}: {v!r} vs reference {val!r} (allowed {allowed:.1e})")
    return bad
