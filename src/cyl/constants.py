"""Closed-form constants of the four-dimensional Yamabe problem and exact
bubble / double-bubble profiles on R^4.

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

import numpy as np

__all__ = [
    "ClosedFormConstants",
    "FlatBubble",
    "sobolev_constants",
    "bubble",
    "bubble_value",
    "bubble_gradient",
    "double_bubble_value",
    "energy_level",
    "exponents_admissible",
    "stencil_laplacian",
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


@dataclass(frozen=True)
class FlatBubble:
    """A scaled and translated extremal bubble on R^4.

    The induced profile ``eps^-1 * U((x - center)/eps)`` has unit L^4 norm for
    every admissible parameter pair.
    """

    epsilon: float
    center: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("bubble scale epsilon must be positive")
        if len(self.center) != 4:
            raise ValueError("bubble center must be a point of R^4")


def _as_points(p) -> np.ndarray:
    pts = np.asarray(p, dtype=float)
    if pts.shape[-1] != 4:
        raise ValueError("points must have 4 components")
    return pts


def bubble(r2, eps: float = 1.0):
    """The bubble profile (c4/eps) / (1 + r2/eps^2) at squared distance r2
    from its center; r2 is a float, an array or a ``minmax.D2``."""
    return (sobolev_constants().c4 / eps) / (1.0 + r2 * (1.0 / eps ** 2))


def bubble_value(b: FlatBubble, p) -> np.ndarray:
    """Profile value eps^-1 * c4 / (1 + eps^-2 |p - center|^2); positive."""
    d2 = np.sum((_as_points(p) - np.asarray(b.center)) ** 2, axis=-1)
    return bubble(d2, b.epsilon)


def bubble_gradient(b: FlatBubble, p) -> np.ndarray:
    """Analytic gradient of ``bubble_value`` with respect to the point."""
    k = sobolev_constants()
    pts = _as_points(p)
    d = pts - np.asarray(b.center)
    d2 = np.sum(d * d, axis=-1)
    denom = (1.0 + d2 / b.epsilon ** 2) ** 2
    return (-2.0 * k.c4 / b.epsilon ** 3) * d / denom[..., None]


def double_bubble_value(epsilon: float, t: float, nu, p) -> np.ndarray:
    """Symmetric pair U_{eps, t*nu} + U_{eps, -t*nu}; even under p -> -p."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if t < 0.0:
        raise ValueError("center separation t must be nonnegative")
    nu = np.asarray(nu, dtype=float)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise ValueError("nu must be a unit 4-vector")
    plus = FlatBubble(epsilon, tuple(t * nu))
    minus = FlatBubble(epsilon, tuple(-t * nu))
    return bubble_value(plus, p) + bubble_value(minus, p)


def energy_level(j1: int, j2: int) -> float:
    """Limiting Yamabe quotient of a blow-up with j1 singular and j2 regular
    bubbles: sqrt(j1 + 2*j2) * Y4 / sqrt(2)."""
    if j1 < 0 or j2 < 0 or j1 + j2 < 1:
        raise ValueError("need nonnegative bubble counts with j1 + j2 >= 1")
    k = sobolev_constants()
    return math.sqrt(float(j1 + 2 * j2)) * k.Y4 / math.sqrt(2.0)


def stencil_laplacian(f, p, h: float = 1e-3) -> float:
    """Second-order centered-stencil Laplacian of a scalar field on R^4."""
    p = np.asarray(p, dtype=float)
    acc = 0.0
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        acc += float(f(p + e)) + float(f(p - e)) - 2.0 * float(f(p))
    return acc / h ** 2
