"""Command-line driver.

Subcommands:

    constants          print and persist the closed-form constants table
    interaction-sweep  curve table a, b, c, f with derivative and slope rows
    green-sweep        mass-divergence table with the A_q * 4 t^2 column
    cnc-verify         conformal-normal-coordinate residuals on the round chart
    gauge-verify       first-order gauge identity residuals on the link
    path-profile       the five-leg competitor path, CSV/JSON + plot data
    accept             run the full acceptance suite

Flags: --config PATH, --out DIR, --tol-scale X.  The output directory falls
back to $CYL_OUT_DIR, then to the config value.  Commands run serially.
Exit code 0 only when every enabled acceptance check passes; otherwise the
first failing criterion's index (1..12).  A usage error, such as an
``accept --only`` index outside 1..12 or an unknown flag, exits 64
(``EX_USAGE``), a code no criterion takes, before anything runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from cyl.config import RunConfig, load_config
from cyl.constants import sobolev_constants
from cyl.quadrature import QuadratureSpec
from cyl.reports import RunManifest, fmt, write_csv, write_json, write_plot_data

__all__ = ["main", "EX_USAGE"]

# the exit code of a usage error; criterion indices stay below it
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EX_USAGE instead of 2, the index
    of the bracket criterion."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="cyl",
        description="numerical laboratory for bubble interactions, conical "
                    "charts and min-max Yamabe paths")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiply quadrature tolerances by this factor")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("constants", "interaction-sweep", "green-sweep",
                 "cnc-verify", "gauge-verify", "path-profile"):
        sub.add_parser(name)
    acc = sub.add_parser("accept")
    acc.add_argument("--only", default=None, type=_criteria,
                     help="comma-separated criterion indices (1-12) to run")
    return p


def _criteria(text: str) -> set:
    from cyl.acceptance import ALL_CHECKS
    parts = {s.strip() for s in text.split(",")}
    if not parts <= {str(i) for i in range(1, len(ALL_CHECKS) + 1)}:
        raise argparse.ArgumentTypeError(
            f"expected indices in 1..{len(ALL_CHECKS)}, got {text!r}")
    return {int(s) for s in parts}


def _setup(args):
    cfg = load_config(args.config)
    if args.tol_scale != 1.0:
        cfg = cfg.scale_tolerances(args.tol_scale)
    out = cfg.resolve_out_dir(args.out)
    os.makedirs(out, exist_ok=True)
    return cfg, out


def cmd_constants(cfg: RunConfig, out: str) -> int:
    k = sobolev_constants()
    manifest = RunManifest(config=cfg.as_dict())
    rows = [
        ("c4", k.c4, "(6/pi^2)^(1/4)"),
        ("S4", k.S4, "8*pi/sqrt(6)"),
        ("Y4", k.Y4, "6*S4"),
        ("Ys", k.Ys, "Y4/sqrt(2)"),
        ("A", k.A, "6*pi*sqrt(6)"),
        ("B", k.B, "pi*sqrt(6)"),
        ("B/S4", k.B / k.S4, "3/4 exact"),
    ]
    for name, val, form in rows:
        print(f"{name:5s} = {fmt(val)}   [{form}]")
    print(f"Y4 = 6*S4 consistency: {fmt(k.Y4 - 6.0 * k.S4)}")
    print(f"B/S4 = 0.75 exact: {fmt(k.B / k.S4 - 0.75)}")
    write_csv(os.path.join(out, "constants.csv"),
              ["name", "value", "closed_form"], rows)
    manifest.record("S4", k.S4, 0.0)
    manifest.write(os.path.join(out, "constants.manifest.json"))
    return 0


def cmd_interaction_sweep(cfg: RunConfig, out: str) -> int:
    from cyl.interaction import (asymptotic_slope, a_prime_quadrature,
                                 c_prime_quadrature, curves)
    k = sobolev_constants()
    manifest = RunManifest(config=cfg.as_dict())
    t0 = manifest.start("curves")
    spec = QuadratureSpec(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
    grid = np.asarray(cfg.t_grid, dtype=float)

    def point(t):
        cur = curves(1.0, [t], spec)
        ap = a_prime_quadrature(1.0, float(t), spec)
        cp = c_prime_quadrature(1.0, float(t), spec)
        return cur, ap, cp

    results = [point(t) for t in grid]
    manifest.finish("curves", t0)
    lo_margin, hi_margin = [], []
    rows = []
    for t, (cur, ap, cp) in zip(grid, results):
        lo, hi = cur.bracket_margins()
        lo_margin.append(float(lo[0]))
        hi_margin.append(float(hi[0]))
        bracket = "PASS" if lo[0] > 3 * cur.f_err[0] and hi[0] > 3 * cur.f_err[0] \
            else "FAIL"
        status = "ok" if cur.converged[0] and ap.converged and cp.converged \
            else "no-conv"
        rows.append((float(t), float(cur.a[0]), float(cur.b[0]),
                     float(cur.c[0]), float(cur.f[0]), ap.value, cp.value,
                     float(cur.f_err[0]), bracket, status))
    header = ["t", "a", "b", "c", "f", "a_prime", "c_prime", "f_err",
              "bracket", "status"]
    t1 = manifest.start("slopes")
    sspec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-15)
    fit_g = asymptotic_slope("GRAD", 1.0, [12.5, 25.0, 50.0, 100.0], sspec)
    fit_u = asymptotic_slope("U3V", 1.0, [12.5, 25.0, 50.0, 100.0], sspec)
    fit_f = asymptotic_slope("f-curve", 1.0, [125.0, 250.0, 500.0, 1000.0], sspec)
    manifest.finish("slopes", t1)
    footer = [
        ("slope_grad", fit_g.coefficient, k.B, "", "", "", "", fit_g.residual,
         "", ""),
        ("slope_u3v", fit_u.coefficient, 0.75, "", "", "", "", fit_u.residual,
         "", ""),
        ("slope_fcurve", fit_f.coefficient, -6.0 * math.sqrt(2.0) * k.B,
         "", "", "", "", fit_f.residual, "", ""),
    ]
    write_csv(os.path.join(out, "interaction.csv"), header, rows + footer)
    monot = all(r[5] < 0 and r[6] < 0 for r in rows)
    print(f"bracket: {'PASS' if all(r[8] == 'PASS' for r in rows) else 'FAIL'}"
          f" at all {len(rows)} rows")
    print(f"monotonicity (a' < 0, c' < 0): {'PASS' if monot else 'FAIL'}")
    print(f"slope grad {fmt(fit_g.coefficient)} target {fmt(k.B)}")
    print(f"slope u3v {fmt(fit_u.coefficient)} target 0.75")
    print(f"slope f-curve {fmt(fit_f.coefficient)} target "
          f"{fmt(-6.0 * math.sqrt(2.0) * k.B)}")
    manifest.record("slope_grad", fit_g.coefficient, fit_g.residual)
    manifest.record("slope_u3v", fit_u.coefficient, fit_u.residual)
    manifest.record("slope_fcurve", fit_f.coefficient, fit_f.residual)
    manifest.write(os.path.join(out, "interaction.manifest.json"))
    return 0


def cmd_green_sweep(cfg: RunConfig, out: str) -> int:
    from cyl.green import RadialChart, mass_divergence_sweep, parametrix_sweep
    manifest = RunManifest(config=cfg.as_dict())
    t0 = manifest.start("sweeps")
    rows = []
    for model in ("flat-cone", "football"):
        delta = cfg.green_delta if model == "flat-cone" \
            else min(cfg.green_delta, 0.8)
        for row in mass_divergence_sweep(model, cfg.green_t_grid, delta):
            rows.append((model, row["t"], row["A_q"], row["product"],
                         row["error"], row["solver_error"]))
    manifest.finish("sweeps", t0)
    # flat-ball calibration row: closed-form mass -1/delta^2
    from cyl.geometry.fields import FlatField
    from cyl.green import GreenProblem, extract_mass, solve_dirichlet_green
    ev = solve_dirichlet_green(GreenProblem(FlatField(), np.zeros(4),
                                            cfg.green_delta))
    exp = extract_mass(ev, np.zeros(4), eps0=0.05 * cfg.green_delta)
    rows.append(("flat-ball-centered", 0.0, exp.A_q,
                 exp.A_q * cfg.green_delta ** 2, exp.error, 0.0))
    par = parametrix_sweep(RadialChart.round(), [0.1, 0.2, 0.4])
    rows.append(("parametrix-exponent", 0.0, par["exponent"], 0.0, 0.0, 0.0))
    write_csv(os.path.join(out, "green.csv"),
              ["model", "t", "A_q", "A_q_4t2", "error", "solver_error"], rows)
    print(f"smallest-t products: "
          + ", ".join(f"{r[0]} {r[3]:.4f}" for r in rows if r[0] in
                      ("flat-cone", "football") and r[1] == min(cfg.green_t_grid)))
    print(f"flat-ball centered mass {fmt(exp.A_q)} "
          f"(target {fmt(-1.0 / cfg.green_delta ** 2)})")
    print(f"parametrix exponent {fmt(par['exponent'])} (target -2)")
    manifest.record("parametrix_exponent", par["exponent"], 0.0)
    manifest.write(os.path.join(out, "green.manifest.json"))
    return 0


def cmd_cnc_verify(cfg: RunConfig, out: str) -> int:
    from cyl.geometry.cnc import verify_cnc
    from cyl.geometry.fields import WarpedRadialField, round_profile
    fld = WarpedRadialField(round_profile())
    rows = []
    for h in (2e-3, 1e-3, 5e-4):
        res = verify_cnc(fld, t_cutoff=0.4, h_fd=h)
        rows.append((h, res["R"], res["Ric"], res["dR"], res["sym_dRic"]))
        print(f"h={h:g}: |R| {res['R']:.3e}  |Ric| {res['Ric']:.3e}  "
              f"|dR| {res['dR']:.3e}  |sym dRic| {res['sym_dRic']:.3e}")
    write_csv(os.path.join(out, "cnc.csv"),
              ["h_fd", "R", "Ric", "dR", "sym_dRic"], rows)
    return 0


def cmd_gauge_verify(cfg: RunConfig, out: str) -> int:
    from cyl.geometry.links import (LinkFunction, LinkTensorFamily,
                                    sphere_points, verify_first_order_identity)
    f = LinkFunction.quadratic(np.diag([0.3, -0.1, -0.1, -0.1]))
    fam = LinkTensorFamily.linear_perturbation(
        lambda z: np.diag([0.1, -0.2, 0.05, 0.0]))
    gauge = LinkTensorFamily.gauge_killing(f)
    pts = sphere_points(8, cfg.seed % 100)
    rows = []
    for h in (2e-3, 1e-3, 5e-4):
        r = verify_first_order_identity(f, fam, h, points=pts)
        rg = verify_first_order_identity(f, gauge, h, points=pts)
        rows.append((h, r, rg))
        print(f"h={h:g}: identity residual {r:.3e}, post-gauge {rg:.3e}")
    write_csv(os.path.join(out, "gauge.csv"),
              ["h_fd", "identity_residual", "post_gauge_residual"], rows)
    return 0


def cmd_path_profile(cfg: RunConfig, out: str) -> int:
    from cyl.minmax import PathConfig, build_path, fit_expansion_A
    k = sobolev_constants()
    manifest = RunManifest(config=cfg.as_dict())
    pcfg = PathConfig(epsilon=cfg.epsilon, alpha=cfg.alpha, omega=cfg.omega,
                      delta=cfg.delta, mu_points=cfg.mu_points,
                      rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
    t0 = manifest.start("path")
    prof = build_path(pcfg)
    manifest.finish("path", t0)
    rows = [(float(m), leg, float(q), float(e), float(6.0 * k.S4 - q))
            for m, leg, q, e in zip(prof.mu, prof.legs, prof.Q, prof.Q_err)]
    write_csv(os.path.join(out, "path.csv"),
              ["mu", "leg", "Q", "Q_err", "margin"], rows)
    write_json(os.path.join(out, "path.json"), {
        "mu": prof.mu, "Q": prof.Q, "Q_err": prof.Q_err, "legs": prof.legs,
        "max_Q": prof.max_Q, "argmax_mu": prof.argmax_mu,
        "six_S4": 6.0 * k.S4,
    })
    for leg in sorted(set(prof.legs)):
        sel = [i for i, l in enumerate(prof.legs) if l == leg]
        write_plot_data(os.path.join(out, f"path_{leg.lower()}.dat"),
                        prof.mu[sel], prof.Q[sel], prof.Q_err[sel])
    margin = 6.0 * k.S4 - prof.max_Q
    print(f"max Q = {fmt(prof.max_Q)} at mu = {prof.argmax_mu:g}; "
          f"6*S4 = {fmt(6.0 * k.S4)}; margin = {fmt(margin)}")
    q0, q1 = prof.endpoint_values()
    print(f"endpoints {fmt(q0)} / {fmt(q1)} (Y4/sqrt2 = {fmt(k.Ys)})")
    t1 = manifest.start("fit")
    fit = fit_expansion_A(cfg.epsilon_list_double, leg="DOUBLE",
                          alpha=cfg.alpha, omega=cfg.omega, delta=cfg.delta,
                          spec=QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
    manifest.finish("fit", t1)
    print(f"fitted A (double leg) = {fmt(fit.A_hat)} (target {fmt(k.A)}); "
          f"free exponent {fmt(fit.exponent_free)}")
    manifest.record("max_Q", prof.max_Q, float(np.max(prof.Q_err)))
    manifest.record("A_hat_double", fit.A_hat, fit.residual)
    manifest.write(os.path.join(out, "path.manifest.json"))
    return 0


def cmd_accept(cfg: RunConfig, out: str, only=None) -> int:
    from cyl.acceptance import run_acceptance
    results = run_acceptance(cfg, indices=only)
    write_csv(os.path.join(out, "acceptance.csv"),
              ["index", "name", "passed", "detail", "seconds"],
              [(r.index, r.name, r.passed, r.detail.replace(",", ";"),
                r.seconds) for r in results])
    for r in results:
        if not r.passed:
            return r.index
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg, out = _setup(args)
    if args.command == "constants":
        return cmd_constants(cfg, out)
    if args.command == "interaction-sweep":
        return cmd_interaction_sweep(cfg, out)
    if args.command == "green-sweep":
        return cmd_green_sweep(cfg, out)
    if args.command == "cnc-verify":
        return cmd_cnc_verify(cfg, out)
    if args.command == "gauge-verify":
        return cmd_gauge_verify(cfg, out)
    if args.command == "path-profile":
        return cmd_path_profile(cfg, out)
    if args.command == "accept":
        return cmd_accept(cfg, out, only=getattr(args, "only", None))
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
