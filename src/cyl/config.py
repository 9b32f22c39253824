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
key is a ValueError.  Exponent
constraints (1 > omega > alpha > 1/2, 2 + 2 alpha - 4 omega > 0) are
validated at load.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from cyl.constants import exponents_admissible

__all__ = ["RunConfig", "load_config", "DEFAULT_T_GRID", "DEFAULT_EPS_LIST"]

DEFAULT_T_GRID = tuple(float(x) for x in np.geomspace(0.1, 1000.0, 15))
DEFAULT_EPS_LIST = (1.2e-4, 8.49e-5, 6e-5, 4.24e-5, 3e-5)
DEFAULT_EPS_LIST_DOUBLE = (1.2e-4, 8.49e-5, 6e-5, 4.24e-5, 3e-5, 2.12e-5, 1.5e-5)


@dataclass
class RunConfig:
    scenario: str = "default"
    delta: float = 0.025
    alpha: float = 0.6
    omega: float = 0.7
    epsilon: float = 1e-4
    epsilon_list: tuple = DEFAULT_EPS_LIST
    epsilon_list_double: tuple = DEFAULT_EPS_LIST_DOUBLE
    t_grid: tuple = DEFAULT_T_GRID
    green_delta: float = 1.0
    green_t_grid: tuple = (0.05, 0.04, 0.02)
    mu_points: int = 51
    rel_tol: float = 1e-9
    abs_tol: float = 1e-13
    out_dir: str = "./cyl-out"

    def __post_init__(self):
        if not exponents_admissible(self.alpha, self.omega):
            raise ValueError("need 1 > omega > alpha > 1/2 and "
                             "2 + 2 alpha - 4 omega > 0")
        if not (0.0 < self.rel_tol < math.inf
                and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")

    def scale_tolerances(self, factor: float) -> "RunConfig":
        return replace(self, rel_tol=self.rel_tol * factor,
                       abs_tol=self.abs_tol * factor)

    def resolve_out_dir(self, cli_out: str | None = None) -> str:
        return cli_out or os.environ.get("CYL_OUT_DIR") or self.out_dir

    def as_dict(self) -> dict:
        d = asdict(self)
        for key in ("epsilon_list", "epsilon_list_double", "t_grid",
                    "green_t_grid"):
            d[key] = list(d[key])
        return d


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
