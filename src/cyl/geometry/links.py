"""Functions, tensor families and the change-of-gauge flow on the link S^3.

Link functions are quadratic forms F(z) = z^T Q z of R^4 restricted to the
unit sphere; their intrinsic gradient and Hessian come from the exact
relations

    grad_S f(z) = P_z grad F(z),            P_z = I - z z^T,
    Hess_S f(z)(u, v) = Hess F(z)(u, v) - (z . grad F(z)) (u . v),

valid for tangent u, v (the second from differentiating F along great
circles).  Symmetric 2-tensors on the link are ambient 4x4 matrix fields
acting on tangent vectors; the sphere Hessian's is
P_z Hess F(z) P_z - (z . grad F(z)) P_z.

The gauge flow ``psi_s`` of grad f / 2 is the normalized linear flow
e^{sQ} z / |e^{sQ} z| (Helmke & Moore, *Optimization and Dynamical Systems*,
1994, ch. 1), and its differential is that of y / |y|: both are exact, with
no ODE solve and no difference step.  The pulled-back link tensor is
assembled from them and the embedding alpha(s, z) = (s - s^2 f(z)/2,
psi_s(z)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkFunction",
    "LinkTensorFamily",
    "link_flow",
    "pulled_link_tensor",
    "verify_first_order_identity",
    "tangent_frame",
    "sphere_points",
]


@dataclass(frozen=True)
class LinkFunction:
    """The quadratic form f(z) = z^T Q z on S^3, Q a symmetric 4x4 matrix;
    antipodally even, so admissible on RP^3."""

    Q: np.ndarray

    @staticmethod
    def constant(k: float) -> "LinkFunction":
        return LinkFunction(k * np.eye(4))

    @staticmethod
    def quadratic(Q) -> "LinkFunction":
        return LinkFunction(0.5 * (np.asarray(Q, dtype=float)
                                   + np.asarray(Q, dtype=float).T))

    def value(self, z) -> float:
        return float(z @ self.Q @ z)

    def grad(self, z) -> np.ndarray:  # ambient
        return 2.0 * self.Q @ z

    def hess(self, z) -> np.ndarray:  # ambient
        return 2.0 * self.Q

    def sphere_gradient(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        g = self.grad(z)
        return g - (z @ g) * z

    def sphere_hessian(self, z) -> np.ndarray:
        """Ambient P (Hess F) P - (z.grad F) P, P = I - z z^T: on tangent
        u, v it is Hess_S f(z)(u, v)."""
        z = np.asarray(z, dtype=float)
        P = np.eye(4) - np.outer(z, z)
        return P @ self.hess(z) @ P - (z @ self.grad(z)) * P


@dataclass(frozen=True)
class LinkTensorFamily:
    """s-family h(s) of symmetric 2-tensors on the link.

    ``at(s, z)`` returns the ambient 4x4 matrix whose restriction to T_z S^3
    is h(s); ``prime0(z)`` is h'(0) in the same representation.  h(0) must be
    the round metric (the identity on tangent vectors).
    """

    at: object       # (s, z) -> (4,4)
    prime0: object   # z -> (4,4)

    @staticmethod
    def linear_perturbation(k) -> "LinkTensorFamily":
        """h(s) = h0 + s * k(z) for an ambient matrix field k."""
        return LinkTensorFamily(lambda s, z: np.eye(4) + s * np.asarray(k(z)),
                                lambda z: np.asarray(k(z)))

    @staticmethod
    def gauge_killing(f: LinkFunction) -> "LinkTensorFamily":
        """The family with h'(0) = -(Hess f + f h0): the orbifold gauge of the
        conformal change 1 + 2 s f kills its first-order term."""

        def k(z):
            z = np.asarray(z, dtype=float)
            P = np.eye(4) - np.outer(z, z)
            return -(f.sphere_hessian(z) + f.value(z) * P)

        return LinkTensorFamily(lambda s, z: np.eye(4) + s * k(z), k)


def sphere_points(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def tangent_frame(z) -> np.ndarray:
    """Orthonormal basis (3,4) of T_z S^3 by Gram-Schmidt against z."""
    z = np.asarray(z, dtype=float)
    basis = []
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        v = e - (e @ z) * z
        for b in basis:
            v = v - (v @ b) * b
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == 3:
            break
    return np.array(basis)


def link_flow(f: LinkFunction, s: float, z, frame):
    """psi_s(z) and d(psi_s)_z of the frame rows, for the flow of grad f / 2
    on the round S^3 from time 0 to s (s may be < 0).

    grad f / 2 = Q z - (z.Q z) z is the normalized linear flow of Q, so with
    E = e^{sQ} (from the eigendecomposition of Q) and y = E z,

        psi_s(z) = y / |y|,        d(psi_s)_z u = P_{psi_s(z)} E u / |y|,

    the second being the exact differential of y / |y|.
    """
    lam, V = np.linalg.eigh(f.Q)
    E = (V * np.exp(s * lam)) @ V.T
    y = E @ z
    norm = np.linalg.norm(y)
    z = y / norm
    pushed = frame @ E.T / norm
    return z, pushed - np.outer(pushed @ z, z)


def pulled_link_tensor(f: LinkFunction, family: LinkTensorFamily, s: float,
                       z, frame) -> np.ndarray:
    """(iota_s^* H)(z) on a tangent frame: the explicit form

        (1 + 2 s f) [ (s^2/4) df x df + (1 - s f/2)^2 psi_s^*( h(alpha^1(s,.)) ) ]
    """
    z = np.asarray(z, dtype=float)
    fz = f.value(z)
    alpha1 = s - 0.5 * s * s * fz
    flowed, dpsi = link_flow(f, s, z, frame)
    hmat = np.asarray(family.at(alpha1, flowed))
    df = frame @ f.sphere_gradient(z)
    pulled = dpsi @ hmat @ dpsi.T
    out = (1.0 + 2.0 * s * fz) * (0.25 * s * s * np.outer(df, df)
                                  + (1.0 - 0.5 * s * fz) ** 2 * pulled)
    return out


def verify_first_order_identity(f: LinkFunction, family: LinkTensorFamily,
                                h_fd: float, points) -> float:
    """Sup-norm residual of  d/ds (iota_s^* H) |_0 = h'(0) + Hess f + f h0
    over sample points, with the s-derivative by a central difference."""
    worst = 0.0
    for z in np.atleast_2d(points):
        frame = tangent_frame(z)
        hp = pulled_link_tensor(f, family, h_fd, z, frame)
        hm = pulled_link_tensor(f, family, -h_fd, z, frame)
        lhs = (hp - hm) / (2.0 * h_fd)
        rhs = frame @ (np.asarray(family.prime0(z)) + f.sphere_hessian(z)
                       + f.value(z) * np.eye(4)) @ frame.T
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
