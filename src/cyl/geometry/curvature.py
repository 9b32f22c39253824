"""Pointwise curvature of chart metric fields.

Conventions:
    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    R^r_{s m n} = d_m Gamma^r_{n s} - d_n Gamma^r_{m s}
                  + Gamma^r_{m l} Gamma^l_{n s} - Gamma^r_{n l} Gamma^l_{m s}
    Ric_{s n} = R^m_{s m n},  R = g^{s n} Ric_{s n}

``dR`` and ``dRic`` in a snapshot are covariant derivatives at the basepoint;
in normal coordinates at that point they coincide with plain partials, which
is how the conformal-normal-coordinate polynomial consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyl.geometry.fields import ChartMetricField

__all__ = ["CurvatureSnapshot", "curvature_at"]


@dataclass(frozen=True)
class CurvatureSnapshot:
    point: np.ndarray
    g: np.ndarray          # (4,4) metric at the point
    R: float               # scalar curvature
    Ric: np.ndarray        # (4,4)
    dR: np.ndarray         # (4,)   covariant derivative of R
    dRic: np.ndarray       # (4,4,4) nabla_k Ric_ij
    W: np.ndarray          # (4,4,4,4) Weyl tensor, all indices down

    def weyl_trace_norm(self) -> float:
        ginv = np.linalg.inv(self.g)
        tr = np.einsum("ik,ijkl->jl", ginv, self.W)
        return float(np.max(np.abs(tr)))

    def first_bianchi_norm(self) -> float:
        b = self.W + np.einsum("iklj->ijkl", self.W) + np.einsum("iljk->ijkl", self.W)
        return float(np.max(np.abs(b)))

    def sym_dric(self) -> np.ndarray:
        """Totally symmetrized nabla Ric: d_k Ric_ij + d_i Ric_jk + d_j Ric_ik."""
        t = self.dRic
        return t + np.einsum("ijk->jki", t) + np.einsum("ijk->kij", t)


def _bracket(dg: np.ndarray) -> np.ndarray:
    """out[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij for
    dg[..., k, i, j] = d_k g_ij; leading axes (a further derivative) ride
    along."""
    return dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)


def _gamma(ginv: np.ndarray, dg: np.ndarray):
    """The bracket of dg and Gamma^k_ij = 1/2 g^{kl} bracket[i,j,l]."""
    cand = _bracket(dg)
    return cand, 0.5 * np.einsum("kl,ijl->kij", ginv, cand)


def _riemann_pieces(field: ChartMetricField, x):
    g = field.value(x)
    dg = field.d1(x)
    d2g = field.d2(x)
    ginv = np.linalg.inv(g)
    cand, gamma = _gamma(ginv, dg)
    # d_m Gamma^k_ij from the bracket of d2g and d(ginv) = -ginv dg ginv
    dcand = _bracket(d2g)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("mkl,ijl->mkij", dginv, cand)
                    + np.einsum("kl,mijl->mkij", ginv, dcand))
    riem = (np.einsum("mrns->rsmn", dgamma) - np.einsum("nrms->rsmn", dgamma)
            + np.einsum("rml,lns->rsmn", gamma, gamma)
            - np.einsum("rnl,lms->rsmn", gamma, gamma))
    return g, ginv, gamma, riem


def _ricci_scalar(field, x):
    g, ginv, gamma, riem = _riemann_pieces(field, x)
    ric = np.einsum("msmn->sn", riem)
    scal = float(np.einsum("sn,sn->", ginv, ric))
    return g, ginv, gamma, riem, ric, scal


def curvature_at(field: ChartMetricField, x, h_fd: float = 1e-3) -> CurvatureSnapshot:
    """Full curvature snapshot at x; curvature derivatives use centered
    differences of pointwise Ricci/scalar with step ``h_fd`` and are corrected
    to covariant derivatives with the local Christoffels."""
    x = np.asarray(x, dtype=float)
    g, ginv, gamma, riem, ric, scal = _ricci_scalar(field, x)
    # Weyl, n = 4, indices down, from Kulkarni-Nomizu products:
    # W = Rm - 1/2 (Ric o g) + R/12 (g o g), go = Ric o g, ggo = (g o g)/2
    rm = np.einsum("ra,asmn->rsmn", g, riem)
    go = (np.einsum("ik,jl->ijkl", g, ric) - np.einsum("il,jk->ijkl", g, ric)
          + np.einsum("jl,ik->ijkl", g, ric) - np.einsum("jk,il->ijkl", g, ric))
    ggo = np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)
    weyl = rm - 0.5 * go + (scal / 6.0) * ggo
    # partials of R and Ric by centered differences
    dR = np.empty(4)
    dric = np.empty((4, 4, 4))
    for k in range(4):
        e = np.zeros(4)
        e[k] = h_fd
        *_, ric_p, scal_p = _ricci_scalar(field, x + e)
        *_, ric_m, scal_m = _ricci_scalar(field, x - e)
        dR[k] = (scal_p - scal_m) / (2.0 * h_fd)
        dric[k] = (ric_p - ric_m) / (2.0 * h_fd)
    # covariant correction: nabla_k Ric_ij = d_k Ric_ij - G^m_ki Ric_mj - G^m_kj Ric_im
    dric = dric - np.einsum("mki,mj->kij", gamma, ric) \
        - np.einsum("mkj,im->kij", gamma, ric)
    return CurvatureSnapshot(point=x, g=g, R=scal, Ric=ric, dR=dR, dRic=dric,
                             W=weyl)
