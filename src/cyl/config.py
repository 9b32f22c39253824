"""Run configuration: a flat key = value text file with a documented schema.

Schema (all keys optional; defaults below):

    scenario      = default          # free-form run label
    delta         = 0.025            # chart half-size of the football model
    alpha         = 0.6              # bubble-center exponent t = eps^alpha
    omega         = 0.7              # glue-radius exponent tau = eps^omega
    epsilon       = 1e-4             # calibrated path concentration scale
    epsilon_list  = 1.2e-4, 8.49e-5, 6e-5, 4.24e-5, 3e-5   # INTERP fit sequence
    epsilon_list_double = 1.2e-4, ..., 1.5e-5               # DOUBLE fit sequence
    t_grid        = 0.1, ..., 1000.0 # interaction sweep grid (log-spaced)
    green_delta   = 1.0              # Dirichlet ball radius for mass sweeps
    green_t_grid  = 0.05, 0.04, 0.02 # pole distances for mass sweeps
    mu_points     = 51               # competitor-path resolution
    rel_tol       = 1e-9             # quadrature relative tolerance
    abs_tol       = 1e-13
    out_dir       = ./cyl-out        # overridden by --out or CYL_OUT_DIR

Lines starting with '#' and inline '# ...' comments are ignored; any other
key is a ValueError.

``RunConfig`` is a ``PathConfig``: the competitor path's epsilon, alpha,
omega, delta, mu_points, rel_tol and abs_tol are declared once, in
``PathConfig``, and a run passes its own configuration to the path and the
fits.  ``PathConfig`` validates them at load: the exponent constraints
(1 > omega > alpha > 1/2, 2 + 2 alpha - 4 omega > 0), eps^alpha < delta/4,
glue balls that stay disjoint along the middle leg, and finite positive
tolerances.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from cyl.constants import exponents_admissible
from cyl.quadrature import QuadratureSpec

__all__ = ["PathConfig", "RunConfig", "load_config"]


@dataclass(frozen=True)
class PathConfig:
    """Geometry and exponents of the competitor path on the football.

    delta must be small enough that the beta-cutoff annulus B_{2 tau} never
    reaches the partner bubble anywhere on the middle leg: with
    tau(t) = min(t^{omega/alpha}, ..., (delta/2)^{omega/alpha}) the binding
    point is t = delta/2, where 2 tau / t = 2 (delta/2)^{omega/alpha - 1}.
    """

    epsilon: float = 1e-4
    alpha: float = 0.6
    omega: float = 0.7
    delta: float = 0.025
    mu_points: int = 51
    rel_tol: float = 1e-9
    abs_tol: float = 1e-13

    def __post_init__(self):
        self.spec()  # tolerances must be finite and positive
        if not exponents_admissible(self.alpha, self.omega):
            raise ValueError("exponents must satisfy 1 > omega > alpha > 1/2 "
                             "and 2 + 2 alpha - 4 omega > 0")
        if self.epsilon ** self.alpha >= self.delta / 4.0:
            raise ValueError("epsilon too large: need eps^alpha < delta/4")
        # the two glue balls must stay disjoint along the whole leg
        e = self.omega / self.alpha
        worst = max(2.0 * self.epsilon ** (self.omega - self.alpha),
                    2.0 * (self.delta / 2.0) ** (e - 1.0))
        if worst >= 0.98:
            raise ValueError(
                "glue radius 2 tau reaches the partner bubble somewhere on "
                f"the middle leg (worst 2 tau/t = {worst:.3f}); shrink delta "
                "or epsilon")

    def spec(self) -> QuadratureSpec:
        return QuadratureSpec(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def t_of_mu(self, mu: float) -> float:
        """Center distance along the geodesic for the middle leg mu in [2,3];
        the lifted poles are pi apart."""
        te = self.epsilon ** self.alpha
        return te + (mu - 2.0) * (math.pi - 2.0 * te)

    def tau_of_t(self, t: float) -> float:
        e = self.omega / self.alpha
        return min(t ** e, (math.pi - t) ** e, (self.delta / 2.0) ** e)


@dataclass(frozen=True)
class RunConfig(PathConfig):
    scenario: str = "default"
    epsilon_list: tuple = (1.2e-4, 8.49e-5, 6e-5, 4.24e-5, 3e-5)
    epsilon_list_double: tuple = (1.2e-4, 8.49e-5, 6e-5, 4.24e-5, 3e-5,
                                  2.12e-5, 1.5e-5)
    t_grid: tuple = tuple(float(x) for x in np.geomspace(0.1, 1000.0, 15))
    green_delta: float = 1.0
    green_t_grid: tuple = (0.05, 0.04, 0.02)
    out_dir: str = "./cyl-out"

    def scale_tolerances(self, factor: float) -> "RunConfig":
        return replace(self, rel_tol=self.rel_tol * factor,
                       abs_tol=self.abs_tol * factor)

    def resolve_out_dir(self, cli_out: str | None = None) -> str:
        return cli_out or os.environ.get("CYL_OUT_DIR") or self.out_dir


def _parse(default, val: str):
    """A config value read as the type of its RunConfig default; a tuple
    default takes a comma-separated list of floats."""
    if isinstance(default, tuple):
        return tuple(float(x) for x in val.split(","))
    return type(default)(val)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    defaults = {f.name: f.default for f in fields(RunConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in defaults:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse(defaults[key], val)
    return RunConfig(**values)
