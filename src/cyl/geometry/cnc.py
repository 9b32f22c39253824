"""The conformal-normal-coordinate polynomial and smooth cutoff profiles.

Given a curvature snapshot at a basepoint x, the quadratic+cubic polynomial

    fbar(z) = Ric(z,z)/2 - R |z|^2/12 + nabla_z Ric(z,z)/6 - (dR.z) |z|^2/36

(in normal coordinates at x) makes gbar = exp(fbar) g satisfy R(x) = 0,
Ric(x) = 0, dR(x) = 0 and the symmetrized dRic(x) = 0.  The attached cutoff
phi_t is a fixed C^2 piecewise-quintic profile with |phi^(k)| <= C/t^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyl.geometry.curvature import CurvatureSnapshot, curvature_at
from cyl.geometry.fields import (ChartMetricField, ConformalField,
                                 ForcedFDField)
from cyl.quadrature import gauss_legendre

__all__ = [
    "cutoff_profile",
    "CutoffProfile",
    "cnc_profile",
    "RadialCNCProfile",
    "CNCFactor",
    "cnc_polynomial",
    "verify_cnc",
]


# phi, phi' and phi'' of the quintic step: each as (its exact value off the
# band, its polynomial on the band in t and the band width w)
_STEP = (
    (lambda t: np.where(t <= 0.0, 1.0, 0.0),
     lambda t, w: 1.0 - (10.0 * t ** 3 - 15.0 * t ** 4 + 6.0 * t ** 5)),
    (np.zeros_like,
     lambda t, w: -(30.0 * t ** 2 - 60.0 * t ** 3 + 30.0 * t ** 4) / w),
    (np.zeros_like,
     lambda t, w: -(60.0 * t - 180.0 * t ** 2 + 120.0 * t ** 3) / w ** 2),
)

_RADIUS_NODES = 20  # the Gauss-Legendre order of each piece of ``radius``
_NEWTON_STEPS = 8   # the most Newton steps ``radius_inverse`` takes


def _gauss(g, a, b):
    """int_a^b g by the fixed rule per entry of b; an elementwise product
    and a row sum keep each entry's bits independent of its place in b."""
    x, w = gauss_legendre(_RADIUS_NODES)
    half = 0.5 * (b - a)
    return half * (g((a + half)[..., None] + half[..., None] * x) * w).sum(-1)


@dataclass(frozen=True)
class CutoffProfile:
    """C^2 quintic step: 1 on [0, r1], 0 on [r2, oo).

    The quintic runs only on the transition band r1 < s < r2; elsewhere the
    exact 1 or 0 (0 for the derivatives) is written, so points away from the
    band cost a comparison, not a polynomial."""

    r1: float
    r2: float

    def _banded(self, s, orders) -> list:
        """The derivatives ``orders`` of phi at s from one pass: t = (s -
        r1)/(r2 - r1), the band 0 < t < 1 and its gather are formed once.  A
        0-d or scalar s stays a numpy scalar, so its polynomials run on the
        scalar path."""
        w = self.r2 - self.r1
        t = (np.asarray(s, dtype=float) - self.r1) / w
        band = (t > 0.0) & (t < 1.0)
        if np.ndim(t) == 0:
            return [_STEP[k][1](t, w) if band else _STEP[k][0](t)
                    for k in orders]
        tb = t[band]
        out = []
        for k in orders:
            outside, poly = _STEP[k]
            out.append(outside(t))
            out[-1][band] = poly(tb, w)
        return out

    def jet(self, s, order: int) -> list:
        """[phi, phi', phi''][:order + 1] at s, from one band pass."""
        return self._banded(s, range(order + 1))

    def value(self, s):
        return self._banded(s, (0,))[0]

    def deriv(self, s):
        return self._banded(s, (1,))[0]

    def deriv2(self, s):
        return self._banded(s, (2,))[0]


def cutoff_profile(t: float) -> CutoffProfile:
    """phi_t: 1 for s <= t/4, 0 for s >= t/2."""
    return CutoffProfile(0.25 * t, 0.5 * t)


@dataclass(frozen=True)
class RadialCNCProfile:
    """f(s) = phi_t(s) s^2/2: the cut-off CNC exponent of the round metric
    as a function of the geodesic distance s to its basepoint (the round
    factor is |z|^2/2, see ``cnc_polynomial``); ``jet`` adds its
    s-derivatives and ``radius`` the gbar = e^f g distance rho(s)."""

    phi: CutoffProfile

    @staticmethod
    def _half_square(a, s):
        """a s^2/2, multiplied left to right."""
        return a * 0.5 * s * s

    def jet(self, s, order: int = 2) -> list:
        """[f, f', f''][:order + 1] at s, the cutoff's jet from one band
        pass.  Beyond the cutoff's outer radius each entry is the exact 0
        the products give there, so only the points inside run them."""
        s = np.asarray(s, dtype=float)
        beyond = s >= self.phi.r2
        if np.ndim(s) and beyond.any():
            out = [np.zeros_like(s) for _ in range(order + 1)]
            inside = ~beyond
            if inside.any():
                for o, j in zip(out, self.jet(s[inside], order)):
                    o[inside] = j
            return out
        p = self.phi.jet(s, order)
        out = [self._half_square(p[0], s)]
        if order >= 1:
            out.append(self._half_square(p[1], s) + p[0] * s)
        if order >= 2:
            out.append(self._half_square(p[2], s) + 2.0 * p[1] * s + p[0])
        return out

    def value(self, s):
        return self.jet(s, 0)[0]

    def radius(self, s):
        """rho(s) = int_0^s e^{f/2}, the gbar distance along a radial
        geodesic: the fixed rule on [0, min(s, r1)], where f = s^2/2, and on
        the band [r1, min(s, r2)], plus s - r2 beyond r2, where f = 0."""
        r1, r2 = self.phi.r1, self.phi.r2
        return _gauss(lambda u: np.exp(0.25 * u * u), 0.0, np.minimum(s, r1)) \
            + _gauss(lambda u: np.exp(0.5 * self.value(u)), r1,
                     np.clip(s, r1, r2)) + np.maximum(s - r2, 0.0)

    def radius_inverse(self, rho):
        """The s with radius(s) = rho: Newton's method from s = rho on the
        exact slope e^{f/2}, in [1, e^{r2^2/4}], until a step is 0."""
        s = rho = np.asarray(rho, dtype=float)
        for _ in range(_NEWTON_STEPS):
            step = (self.radius(s) - rho) * np.exp(-0.5 * self.value(s))
            s = s - step
            if not step.any():
                break
        return s


def cnc_profile(t: float) -> RadialCNCProfile:
    """The radial CNC exponent cut off by phi_t: s^2/2 for s <= t/4, 0 for
    s >= t/2."""
    return RadialCNCProfile(cutoff_profile(t))


@dataclass(frozen=True)
class CNCFactor:
    """Quadratic + cubic conformal factor in normal coordinates at a point.

    ``cubic`` is symmetric in its first two indices only; z z z contracts it
    symmetrically, so it is left unsymmetrized."""

    basepoint: np.ndarray
    quad: np.ndarray        # (4,4) symmetric
    cubic: np.ndarray       # (4,4,4) symmetric in i, j
    cutoff: CutoffProfile

    def polynomial(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.quad @ z + np.einsum("ijk,i,j,k->", self.cubic, z, z, z))

    def value(self, z) -> float:
        z = np.asarray(z, dtype=float)
        r = float(np.linalg.norm(z))
        if r >= self.cutoff.r2:
            return 0.0
        return float(self.cutoff.value(r)) * self.polynomial(z)


def cnc_polynomial(snapshot: CurvatureSnapshot, t_cutoff: float) -> CNCFactor:
    """Assemble the conformal factor from a curvature snapshot.

    The snapshot must be expressed in (or rotated to) the normal coordinates
    in which the factor will be used; the construction has no constant or
    linear part by design.
    """
    quad = 0.5 * snapshot.Ric - (snapshot.R / 12.0) * np.eye(4)
    # cubic[i, j, k] = (nabla_k Ric_ij - delta_ij d_k R / 6) / 6
    cubic = (np.einsum("kij->ijk", snapshot.dRic)
             - np.einsum("ij,k->ijk", np.eye(4), snapshot.dR) / 6.0) / 6.0
    return CNCFactor(basepoint=snapshot.point, quad=quad, cubic=cubic,
                     cutoff=cutoff_profile(t_cutoff))


def verify_cnc(normal_field: ChartMetricField, t_cutoff: float,
               h_fd: float) -> dict:
    """Residuals of the conformal-normal-coordinate conditions at the origin
    of a normal chart.

    Builds the factor from the chart's own curvature, forms
    gbar = exp(phi_t fbar) g with curvature recomputed purely by centered
    differences of metric values at step h_fd, and returns {R, Ric, dR,
    sym_dRic} magnitudes at the basepoint (all should vanish at O(h_fd^2)).
    """
    snap = curvature_at(normal_field, np.zeros(4), h_fd)
    factor = cnc_polynomial(snap, t_cutoff)
    forced = ForcedFDField(ConformalField(normal_field, factor.value), h_fd)
    bar = curvature_at(forced, np.zeros(4), h_fd)
    return {
        "R": abs(bar.R),
        "Ric": float(np.max(np.abs(bar.Ric))),
        "dR": float(np.max(np.abs(bar.dR))),
        "sym_dRic": float(np.max(np.abs(bar.sym_dric()))),
        "factor": factor,
    }
