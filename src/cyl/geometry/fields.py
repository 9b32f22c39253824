"""Metric tensor fields on coordinate balls with two levels of derivative
access.

A field supplies ``value(x) -> (4,4)``, ``d1(x) -> (4,4,4)`` indexed
``d1[k,i,j] = d_k g_ij`` and ``d2(x) -> (4,4,4,4)`` indexed
``d2[l,k,i,j] = d_l d_k g_ij``.  Closed-form fields implement the derivatives
analytically; anything else falls back to centered differences with a declared
step, and ``ForcedFDField`` hides analytic derivatives on purpose so one code
path can validate the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChartMetricField",
    "FlatField",
    "RadialProfile",
    "round_profile",
    "flat_profile",
    "WarpedRadialField",
    "ConformalField",
    "ForcedFDField",
]


class ChartMetricField:
    """Base class: symmetric positive-definite g_ij on a chart around 0."""

    fd_step: float = 1e-4

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def d1(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        h = self.fd_step
        out = np.empty((4, 4, 4))
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            out[k] = (self.value(x + e) - self.value(x - e)) / (2.0 * h)
        return out

    def d2(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        h = self.fd_step
        out = np.empty((4, 4, 4, 4))
        g0 = self.value(x)
        for l in range(4):
            el = np.zeros(4)
            el[l] = h
            for k in range(l, 4):
                ek = np.zeros(4)
                ek[k] = h
                if k == l:
                    out[l, l] = (self.value(x + el) - 2.0 * g0
                                 + self.value(x - el)) / h ** 2
                else:
                    out[l, k] = (self.value(x + el + ek) - self.value(x + el - ek)
                                 - self.value(x - el + ek)
                                 + self.value(x - el - ek)) / (4.0 * h ** 2)
                    out[k, l] = out[l, k]
        return out


class FlatField(ChartMetricField):
    """The Euclidean metric; smooth lift of the exact flat Z2-cone."""

    def value(self, x):
        return np.eye(4)

    def d1(self, x):
        return np.zeros((4, 4, 4))

    def d2(self, x):
        return np.zeros((4, 4, 4, 4))


@dataclass(frozen=True)
class RadialProfile:
    """Angular coefficient c(u), u = |x|^2, of a warped radial metric, with
    two u-derivatives, from its power series c(u) = sum series[m] u^m.

    The series has no cancellation at u = 0, where the closed forms of the
    round profile divide by powers of u; at order 12 it is also the more
    accurate of the two on the whole round chart, 0 < u <= (pi/2)^2.
    """

    series: tuple

    def _eval(self, u, der: int):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for m in range(len(self.series) - 1, der - 1, -1):
            fac = 1.0
            for j in range(der):
                fac *= (m - j)
            out = out * u + fac * self.series[m]
        return out

    def c(self, u):
        return self._eval(u, 0)

    def cp(self, u):
        return self._eval(u, 1)

    def cpp(self, u):
        return self._eval(u, 2)


def round_profile(order: int = 12) -> RadialProfile:
    """c(u) = sin^2(sqrt(u))/u, the round-sphere chart in normal coordinates:
    series[m] = (-1)^m 2^(2m+1) / (2m+2)!."""
    return RadialProfile(series=tuple(
        (-1.0) ** m * 2.0 ** (2 * m + 1) / math.factorial(2 * m + 2)
        for m in range(order + 1)))


def flat_profile() -> RadialProfile:
    return RadialProfile(series=(1.0,))


def polynomial_profile(*coef) -> RadialProfile:
    """c(u) as a plain polynomial, e.g. (1, 1) for the family (1 + s^2) h0."""
    return RadialProfile(series=tuple(float(c) for c in coef))


class WarpedRadialField(ChartMetricField):
    """Pullback through Phi of the cone ds^2 + s^2 c(s) h0 over the round S^3:

        g_ij(x) = c(u) delta_ij + q(u) x_i x_j,   u = |x|^2,  q = (1 - c)/u.

    Radial directions keep coefficient 1; the sphere factor is scaled by c.
    Derivatives are analytic through the profile's u-derivatives.
    """

    def __init__(self, profile: RadialProfile):
        self.profile = profile
        # q = (1 - c)/u = -sum series[m+1] u^m
        cser = profile.series
        self._q = RadialProfile(
            series=tuple(-cser[m + 1] for m in range(len(cser) - 1)) or (0.0,))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        u = float(x @ x)
        return self.profile.c(u) * np.eye(4) + self._q.c(u) * np.outer(x, x)

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        u = float(x @ x)
        c1 = self._scalar(self.profile.cp, u)
        q0 = self._scalar(self._q.c, u)
        q1 = self._scalar(self._q.cp, u)
        eye = np.eye(4)
        xx = np.outer(x, x)
        out = np.empty((4, 4, 4))
        for k in range(4):
            out[k] = 2.0 * x[k] * (c1 * eye + q1 * xx)
            out[k] += q0 * (np.outer(eye[k], x) + np.outer(x, eye[k]))
        return out

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        u = float(x @ x)
        c1 = self._scalar(self.profile.cp, u)
        c2 = self._scalar(self.profile.cpp, u)
        q0 = self._scalar(self._q.c, u)
        q1 = self._scalar(self._q.cp, u)
        q2 = self._scalar(self._q.cpp, u)
        eye = np.eye(4)
        xx = np.outer(x, x)
        out = np.empty((4, 4, 4, 4))
        for l in range(4):
            for k in range(4):
                term = 2.0 * eye[l, k] * (c1 * eye + q1 * xx) \
                    + 4.0 * x[k] * x[l] * (c2 * eye + q2 * xx) \
                    + 2.0 * x[k] * q1 * (np.outer(eye[l], x) + np.outer(x, eye[l])) \
                    + 2.0 * x[l] * q1 * (np.outer(eye[k], x) + np.outer(x, eye[k])) \
                    + q0 * (np.outer(eye[k], eye[l]) + np.outer(eye[l], eye[k]))
                out[l, k] = term
        return out

    @staticmethod
    def _scalar(fn, u):
        return float(fn(np.array([u]))[0])


class ConformalField(ChartMetricField):
    """g = exp(F(x)) * base(x) for a scalar conformal exponent F.  Only the
    value is closed-form; derivatives take the centered-difference fallback
    (``verify_cnc`` sets their step through ``ForcedFDField``)."""

    def __init__(self, base: ChartMetricField, F):
        self.base = base
        self.F = F

    def value(self, x):
        return math.exp(self.F(x)) * self.base.value(x)


class ForcedFDField(ChartMetricField):
    """Wrapper exposing only metric values, so derivatives go through the
    centered-difference fallback with the given step."""

    def __init__(self, base: ChartMetricField, step: float):
        self.base = base
        self.fd_step = step

    def value(self, x):
        return self.base.value(x)
