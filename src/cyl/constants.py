"""Closed-form constants of the four-dimensional Yamabe problem and the
bubble profile on R^4.

Everything is derived from the bubble amplitude ``c4`` at import time; no
other numerical literal enters, so every later number in the laboratory traces
back to one source.  The normalized bubble is

    U(x) = c4 / (1 + |x|^2),      c4 = (6/pi^2)^(1/4),

with unit L^4 norm, and solves  -Delta U = S4 * U^3  with  S4 = 8 / c4^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "ClosedFormConstants",
    "sobolev_constants",
    "bubble",
    "energy_level",
    "exponents_admissible",
]


@dataclass(frozen=True)
class ClosedFormConstants:
    """The exact constants of the flat four-dimensional problem.

    Invariants (enforced in ``__post_init__``):
      * S4 * c4^2 = 8
      * A = 6 * B,  B = pi^2 * c4^2
      * Ys = Y4 / sqrt(2)
    """

    c4: float  # bubble amplitude
    S4: float  # Sobolev constant
    Y4: float  # sphere Yamabe constant, 6 * S4
    Ys: float  # singular local Yamabe constant, Y4 / sqrt(2)
    A: float   # expansion constant 6 * pi^2 * c4^2
    B: float   # interaction constant pi^2 * c4^2

    def __post_init__(self):
        assert abs(self.S4 * self.c4 ** 2 - 8.0) < 1e-14
        assert abs(self.A - 6.0 * self.B) < 1e-12
        assert abs(self.Ys - self.Y4 / math.sqrt(2.0)) < 1e-12

    def as_dict(self) -> dict:
        return {"c4": self.c4, "S4": self.S4, "Y4": self.Y4,
                "Ys": self.Ys, "A": self.A, "B": self.B}


@lru_cache(maxsize=1)
def sobolev_constants() -> ClosedFormConstants:
    """Exact closed forms, evaluated once in double precision."""
    c4 = (6.0 / math.pi ** 2) ** 0.25
    S4 = 8.0 / c4 ** 2
    Y4 = 6.0 * S4
    B = math.pi ** 2 * c4 ** 2
    A = 6.0 * B
    return ClosedFormConstants(c4=c4, S4=S4, Y4=Y4, Ys=Y4 / math.sqrt(2.0), A=A, B=B)


def exponents_admissible(alpha: float, omega: float) -> bool:
    """The path exponents t = eps^alpha, tau = eps^omega are admissible."""
    return 1.0 > omega > alpha > 0.5 and 2.0 + 2.0 * alpha - 4.0 * omega > 0.0


def bubble(r2, eps: float = 1.0):
    """The bubble profile (c4/eps) / (1 + r2/eps^2) at squared distance r2
    from its center; r2 is a float, an array or a ``minmax.D2``."""
    return (sobolev_constants().c4 / eps) / (1.0 + r2 * (1.0 / eps ** 2))


def energy_level(j1: int, j2: int) -> float:
    """Limiting Yamabe quotient of a blow-up with j1 singular and j2 regular
    bubbles: sqrt(j1 + 2*j2) * Y4 / sqrt(2)."""
    if j1 < 0 or j2 < 0 or j1 + j2 < 1:
        raise ValueError("need nonnegative bubble counts with j1 + j2 >= 1")
    k = sobolev_constants()
    return math.sqrt(float(j1 + 2 * j2)) * k.Y4 / math.sqrt(2.0)

