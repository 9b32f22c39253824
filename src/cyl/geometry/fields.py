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
    two u-derivatives.

    Evaluation switches from the Taylor series (coefficients ``series``) to
    the closed forms below ``u_switch``; the series absorbs the cancellation
    that makes the closed forms unstable near u = 0.
    """

    series: tuple           # c(u) = sum series[m] * u^m near 0
    closed: object = None   # (c, c', c'') closed-form triple of u, or None
    u_switch: float = 0.25

    def _series_eval(self, u, der: int):
        coef = np.array(self.series, dtype=float)
        out = np.zeros_like(u)
        for m in range(len(coef) - 1, der - 1, -1):
            fac = 1.0
            for j in range(der):
                fac *= (m - j)
            out = out * u + fac * coef[m]
        return out

    def _eval(self, u, der: int):
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        small = u < self.u_switch
        if np.any(small):
            out[small] = self._series_eval(u[small], der)
        if np.any(~small):
            if self.closed is None:
                out[~small] = self._series_eval(u[~small], der)
            else:
                out[~small] = self.closed[der](u[~small])
        return out

    def c(self, u):
        return self._eval(u, 0)

    def cp(self, u):
        return self._eval(u, 1)

    def cpp(self, u):
        return self._eval(u, 2)


def round_profile(order: int = 12) -> RadialProfile:
    """c(u) = sin^2(sqrt(u))/u, the round-sphere chart in normal coordinates."""
    coef = []
    fact = [1.0]
    for n in range(1, 2 * order + 4):
        fact.append(fact[-1] * n)
    for m in range(order + 1):
        coef.append((-1.0) ** m * 2.0 ** (2 * m + 1) / fact[2 * m + 2])

    def c0(u):
        r = np.sqrt(u)
        return np.sin(r) ** 2 / u

    def c1(u):
        r = np.sqrt(u)
        return (r * np.sin(r) * np.cos(r) - np.sin(r) ** 2) / u ** 2

    def c2(u):
        r = np.sqrt(u)
        s2r = np.sin(2.0 * r)
        term1 = (np.cos(2.0 * r) - s2r / (2.0 * r)) / (2.0 * u ** 2)
        term2 = -2.0 * (r * np.sin(r) * np.cos(r) - np.sin(r) ** 2) / u ** 3
        return term1 + term2

    return RadialProfile(series=tuple(coef), closed=(c0, c1, c2))


def flat_profile() -> RadialProfile:
    return RadialProfile(series=(1.0,), closed=None, u_switch=math.inf)


def polynomial_profile(*coef) -> RadialProfile:
    """c(u) as a plain polynomial, e.g. (1, 1) for the family (1 + s^2) h0."""
    return RadialProfile(series=tuple(float(c) for c in coef), closed=None,
                         u_switch=math.inf)


class WarpedRadialField(ChartMetricField):
    """Pullback through Phi of the cone ds^2 + s^2 c(s) h0 over the round S^3:

        g_ij(x) = c(u) delta_ij + q(u) x_i x_j,   u = |x|^2,  q = (1 - c)/u.

    Radial directions keep coefficient 1; the sphere factor is scaled by c.
    Derivatives are analytic through the profile's u-derivatives.
    """

    def __init__(self, profile: RadialProfile, chart_radius: float = math.inf):
        self.profile = profile
        self.chart_radius = chart_radius
        # q-series from the c-series: q = sum -series[m+1] u^m
        cser = profile.series
        qser = tuple(-cser[m + 1] for m in range(len(cser) - 1)) or (0.0,)

        def q0(u):
            return (1.0 - profile.c(u)) / u

        def q1(u):
            return -(profile.cp(u) * u + (1.0 - profile.c(u))) / u ** 2

        def q2(u):
            return (-profile.cpp(u) / u + 2.0 * profile.cp(u) / u ** 2
                    + 2.0 * (1.0 - profile.c(u)) / u ** 3)

        self._q = RadialProfile(series=qser, closed=(q0, q1, q2),
                                u_switch=profile.u_switch)

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
