"""Command-line driver.

Subcommands:

    constants          print and persist the closed-form constants table
    interaction-sweep  curve table a, b, c, f, a', c' with their errors, slope rows
    green-sweep        mass-divergence table with the A_q * 4 t^2 column
    cnc-verify         conformal-normal-coordinate residuals on the round chart
    gauge-verify       first-order gauge identity residuals on the link
    path-profile       the five-leg competitor path, CSV/JSON + plot data
    accept             run the full acceptance suite

Flags: --config PATH, --out DIR, --tol-scale X.  The output directory falls
back to $CYL_OUT_DIR, then to the config value.  Commands run serially.
Each command writes its CSV and, once it returns, ``<csv stem>.manifest.json``
beside it; ``accept`` records one stage per criterion.
Exit code 0 only when every enabled acceptance check passes; otherwise the
first failing criterion's index (1..12).  A usage or input error, such as
an ``accept --only`` index outside 1..12, an unknown flag, a ``--tol-scale``
that is not a finite factor > 0, or a ``--config`` file that is missing or
does not load (an unknown key, path parameters ``PathConfig`` rejects,
such as an epsilon or a delta that is not finite and > 0, a t grid entry
or a ``green_delta`` that is not finite and > 0, or a
``green_t_grid`` pole at or beyond ``football_delta``/4), exits 64
(``EX_USAGE``), a code no criterion takes, before anything runs or is
written.  A criterion that raises is a FAIL line naming the exception, and
the later criteria still run.  Any other exception prints its traceback to
stderr and exits 70 (``EX_SOFTWARE``), so a fault of the program is never
read as a failed criterion.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from dataclasses import asdict

import numpy as np

from cyl.config import RunConfig, load_config
from cyl.constants import sobolev_constants
from cyl.reports import RunManifest, fmt, write_csv, write_json, write_plot_data

__all__ = ["main", "EX_USAGE", "EX_SOFTWARE"]

# the exit codes of a usage error and of an uncaught exception; criterion
# indices stay below both
EX_USAGE = 64
EX_SOFTWARE = 70


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
    p.add_argument("--tol-scale", type=_tol_scale, default=1.0,
                   help="multiply quadrature tolerances by this factor")
    sub = p.add_subparsers(dest="command", required=True)
    # each command, the function that runs it on (cfg, out, args, manifest)
    # and the stem of its CSV, which its manifest shares
    for name, run, stem in (("constants", cmd_constants, "constants"),
                            ("interaction-sweep", cmd_interaction_sweep,
                             "interaction"),
                            ("green-sweep", cmd_green_sweep, "green"),
                            ("cnc-verify", cmd_cnc_verify, "cnc"),
                            ("gauge-verify", cmd_gauge_verify, "gauge"),
                            ("path-profile", cmd_path_profile, "path"),
                            ("accept", cmd_accept, "acceptance")):
        sub.add_parser(name).set_defaults(run=run, stem=stem)
    sub.choices["accept"].add_argument(
        "--only", default=None, type=_criteria,
        help="comma-separated criterion indices (1-12) to run")
    return p


def _tol_scale(text: str) -> float:
    if not 0.0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite factor > 0, "
                                         f"got {text!r}")
    return float(text)


def _criteria(text: str) -> set:
    from cyl.acceptance import ALL_CHECKS
    parts = {s.strip() for s in text.split(",")}
    if not parts <= {str(i) for i in range(1, len(ALL_CHECKS) + 1)}:
        raise argparse.ArgumentTypeError(
            f"expected indices in 1..{len(ALL_CHECKS)}, got {text!r}")
    return {int(s) for s in parts}


def _setup(parser, args):
    try:
        cfg = load_config(args.config)
        if args.tol_scale != 1.0:
            cfg = cfg.scale_tolerances(args.tol_scale)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    out = cfg.resolve_out_dir(args.out)
    os.makedirs(out, exist_ok=True)
    return cfg, out


def cmd_constants(cfg: RunConfig, out: str, args, manifest) -> int:
    k = sobolev_constants()
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
    return 0


def cmd_interaction_sweep(cfg: RunConfig, out: str, args, manifest) -> int:
    from cyl.acceptance import slope_fits
    from cyl.interaction import curves, derivative_quadratures
    spec = cfg.spec()
    grid = np.asarray(cfg.t_grid, dtype=float)
    with manifest.stage("curves"):
        cur = curves(1.0, grid, spec)
        primes = derivative_quadratures(1.0, grid, spec)
    inside = cur.in_bracket()
    rows = []
    for i, (t, (ap, cp)) in enumerate(zip(grid, primes)):
        bracket = "PASS" if inside[i] else "FAIL"
        status = "ok" if cur.converged[i] and ap.converged and cp.converged \
            else "no-conv"
        rows.append((float(t), float(cur.a[i]), float(cur.b[i]),
                     float(cur.c[i]), float(cur.f[i]), ap.value, cp.value,
                     float(cur.f_err[i]), bracket, status,
                     float(cur.a_err[i]), float(cur.b_err[i]),
                     float(cur.c_err[i]), ap.error_estimate,
                     cp.error_estimate))
    header = ["t", "a", "b", "c", "f", "a_prime", "c_prime", "f_err",
              "bracket", "status", "a_err", "b_err", "c_err", "a_prime_err",
              "c_prime_err"]
    with manifest.stage("slopes"):
        fits = slope_fits()
    names = ("grad", "u3v", "fcurve")
    footer = [(f"slope_{name}", fit.coefficient, target, "", "", "", "",
               fit.residual, "", "", "", "", "", "", "")
              for name, (fit, target) in zip(names, fits)]
    write_csv(os.path.join(out, "interaction.csv"), header, rows + footer)
    monot = all(r[5] < 0 and r[6] < 0 for r in rows)
    print(f"bracket: {'PASS' if all(r[8] == 'PASS' for r in rows) else 'FAIL'}"
          f" at all {len(rows)} rows")
    print(f"monotonicity (a' < 0, c' < 0): {'PASS' if monot else 'FAIL'}")
    for name, (fit, target) in zip(("grad", "u3v", "f-curve"), fits):
        print(f"slope {name} {fmt(fit.coefficient)} target {fmt(target)}")
    for name, (fit, _) in zip(names, fits):
        manifest.record(f"slope_{name}", fit.coefficient, fit.residual)
    return 0


def cmd_green_sweep(cfg: RunConfig, out: str, args, manifest) -> int:
    from cyl.acceptance import centred_flat_mass, round_parametrix
    from cyl.green import mass_divergence_sweep
    rows = []
    with manifest.stage("sweeps"):
        for model, delta in (("flat-cone", cfg.green_delta),
                             ("football", cfg.football_delta)):
            for row in mass_divergence_sweep(model, cfg.green_t_grid, delta):
                rows.append((model, row["t"], row["A_q"], row["product"],
                             row["error"], row["solver_error"]))
    # flat-ball calibration row: closed-form mass -1/delta^2
    centred = centred_flat_mass(cfg)
    rows.append(("flat-ball-centered", centred["t"], centred["A_q"],
                 centred["product"], centred["error"], centred["solver_error"]))
    par = round_parametrix()
    rows.append(("parametrix-exponent", 0.0, par["exponent"], 0.0, 0.0, 0.0))
    write_csv(os.path.join(out, "green.csv"),
              ["model", "t", "A_q", "A_q_4t2", "error", "solver_error"], rows)
    print(f"smallest-t products: "
          + ", ".join(f"{r[0]} {r[3]:.4f}" for r in rows if r[0] in
                      ("flat-cone", "football") and r[1] == min(cfg.green_t_grid)))
    print(f"flat-ball centered mass {fmt(centred['A_q'])} "
          f"(target {fmt(-1.0 / cfg.green_delta ** 2)})")
    print(f"parametrix exponent {fmt(par['exponent'])} (target -2)")
    manifest.record("parametrix_exponent", par["exponent"], 0.0)
    return 0


def cmd_cnc_verify(cfg: RunConfig, out: str, args, manifest) -> int:
    from cyl.acceptance import round_cnc
    rows = []
    for h in (2e-3, 1e-3, 5e-4):
        with manifest.stage(f"h={h:g}"):
            res = round_cnc(h)
        rows.append((h, res["R"], res["Ric"], res["dR"], res["sym_dRic"]))
        print(f"h={h:g}: |R| {res['R']:.3e}  |Ric| {res['Ric']:.3e}  "
              f"|dR| {res['dR']:.3e}  |sym dRic| {res['sym_dRic']:.3e}")
    write_csv(os.path.join(out, "cnc.csv"),
              ["h_fd", "R", "Ric", "dR", "sym_dRic"], rows)
    return 0


def cmd_gauge_verify(cfg: RunConfig, out: str, args, manifest) -> int:
    from cyl.acceptance import gauge_example
    from cyl.geometry.links import verify_first_order_identity
    f, fam, gauge, pts = gauge_example()
    rows = []
    for h in (2e-3, 1e-3, 5e-4):
        with manifest.stage(f"h={h:g}"):
            r = verify_first_order_identity(f, fam, h, points=pts)
            rg = verify_first_order_identity(f, gauge, h, points=pts)
        rows.append((h, r, rg))
        print(f"h={h:g}: identity residual {r:.3e}, post-gauge {rg:.3e}")
    write_csv(os.path.join(out, "gauge.csv"),
              ["h_fd", "identity_residual", "post_gauge_residual"], rows)
    return 0


def cmd_path_profile(cfg: RunConfig, out: str, args, manifest) -> int:
    from cyl.acceptance import double_fit
    from cyl.minmax import build_path
    k = sobolev_constants()
    with manifest.stage("path"):
        prof = build_path(cfg)
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
    with manifest.stage("fit"):
        fit = double_fit(cfg)
    print(f"fitted A (double leg) = {fmt(fit.A_hat)} (target {fmt(k.A)}); "
          f"free exponent {fmt(fit.exponent_free)}")
    manifest.record("max_Q", prof.max_Q, float(np.max(prof.Q_err)))
    manifest.record("A_hat_double", fit.A_hat, fit.residual)
    return 0


def cmd_accept(cfg: RunConfig, out: str, args, manifest) -> int:
    from cyl.acceptance import run_acceptance
    results = run_acceptance(cfg, indices=args.only)
    manifest.stages.update((f"criterion {r.index}", r.seconds)
                           for r in results)
    write_csv(os.path.join(out, "acceptance.csv"),
              ["index", "name", "passed", "detail", "seconds"],
              [(r.index, r.name, r.passed, r.detail, r.seconds)
               for r in results])
    for r in results:
        if not r.passed:
            return r.index
    return 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        cfg, out = _setup(parser, args)
        manifest = RunManifest(config=asdict(cfg))
        code = args.run(cfg, out, args, manifest)
        manifest.write(os.path.join(out, f"{args.stem}.manifest.json"))
        return code
    except Exception:
        traceback.print_exc()
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
