"""Functions, tensor families and the change-of-gauge flow on the link S^3.

Link functions are ambient polynomials restricted to the unit sphere; their
intrinsic gradient and Hessian come from the exact relations

    grad_S f(z) = P_z grad F(z),            P_z = I - z z^T,
    Hess_S f(z)(u, v) = Hess F(z)(u, v) - (z . grad F(z)) (u . v),

valid for tangent u, v (the second from differentiating F along great
circles).  Symmetric 2-tensors on the link are ambient 4x4 matrix fields
acting on tangent vectors.

The gauge flow ``psi_s`` is generated by grad f / 2, and its differential
is integrated with it by the flow's variational equation (Hairer, Norsett &
Wanner, *Solving ODEs I*, sec. I.14), so no difference step enters.  The
pulled-back link tensor is assembled from that differential and the
embedding alpha(s, z) = (s - s^2 f(z)/2, psi_s(z)).
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

_FLOW_RTOL = 1e-12
_FLOW_ATOL = 1e-14


@dataclass(frozen=True)
class LinkFunction:
    """Smooth function on S^3 given by an ambient polynomial with closed-form
    gradient and Hessian."""

    value: object    # z (4,) -> float
    grad: object     # z (4,) -> (4,) ambient gradient
    hess: object     # z (4,) -> (4,4) ambient Hessian

    @staticmethod
    def constant(k: float) -> "LinkFunction":
        return LinkFunction(lambda z: k,
                            lambda z: np.zeros(4),
                            lambda z: np.zeros((4, 4)))

    @staticmethod
    def linear(a) -> "LinkFunction":
        a = np.asarray(a, dtype=float)
        return LinkFunction(lambda z: float(a @ z),
                            lambda z: a.copy(),
                            lambda z: np.zeros((4, 4)))

    @staticmethod
    def quadratic(Q) -> "LinkFunction":
        """f(z) = z^T Q z; antipodally even, so admissible on RP^3."""
        Q = 0.5 * (np.asarray(Q, dtype=float) + np.asarray(Q, dtype=float).T)
        return LinkFunction(lambda z: float(z @ Q @ z),
                            lambda z: 2.0 * Q @ z,
                            lambda z: 2.0 * Q.copy())

    def sphere_gradient(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        g = np.asarray(self.grad(z))
        return g - (z @ g) * z

    def sphere_hessian(self, z, u, v) -> float:
        z = np.asarray(z, dtype=float)
        return float(u @ np.asarray(self.hess(z)) @ v
                     - (z @ np.asarray(self.grad(z))) * (u @ v))

    def is_even(self, n: int = 50, seed: int = 1, tol: float = 1e-12) -> bool:
        return all(abs(self.value(z) - self.value(-z)) <= tol
                   for z in sphere_points(n, seed))


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
            hf = np.asarray(f.hess(z))
            gf = np.asarray(f.grad(z))
            # ambient representation of the sphere Hessian: P (Hess F) P - (z.grad F) P
            P = np.eye(4) - np.outer(z, z)
            sphere_hess = P @ hf @ P - (z @ gf) * P
            return -(sphere_hess + f.value(z) * P)

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

    One ambient solve carries z with its frame under the variational
    equation d' = dF(z) d of F(z) = (g - (z.g) z)/2, g and H the ambient
    gradient and Hessian of f:

        dF(z) d = (H d - (d.g + z.H d) z - (z.g) d) / 2.

    F is tangent to the sphere, so the sphere is invariant; the results are
    renormalized and projected onto it defensively.
    """
    z = np.asarray(z, dtype=float)
    frame = np.asarray(frame, dtype=float)
    if s != 0.0:
        from scipy.integrate import solve_ivp

        def rhs(_, y):
            p, d = y[:4], y[4:].reshape(-1, 4)
            g = np.asarray(f.grad(p))
            H = np.asarray(f.hess(p))
            zg = p @ g
            Hd = d @ H
            dF = Hd - np.outer(d @ g + Hd @ p, p) - zg * d
            return 0.5 * np.concatenate([g - zg * p, dF.ravel()])

        sol = solve_ivp(rhs, (0.0, s), np.concatenate([z, frame.ravel()]),
                        rtol=_FLOW_RTOL, atol=_FLOW_ATOL, method="RK45")
        if not sol.success:
            raise RuntimeError(f"link flow integration failed: {sol.message}")
        z, frame = sol.y[:4, -1], sol.y[4:, -1].reshape(frame.shape)
    z = z / np.linalg.norm(z)
    return z, frame - np.outer(frame @ z, z)


def pulled_link_tensor(f: LinkFunction, family: LinkTensorFamily, s: float,
                       z, frame=None) -> np.ndarray:
    """(iota_s^* H)(z) on a tangent frame: the explicit form

        (1 + 2 s f) [ (s^2/4) df x df + (1 - s f/2)^2 psi_s^*( h(alpha^1(s,.)) ) ]
    """
    z = np.asarray(z, dtype=float)
    if frame is None:
        frame = tangent_frame(z)
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
                                h_fd: float, points=None, seed: int = 3) -> float:
    """Sup-norm residual of  d/ds (iota_s^* H) |_0 = h'(0) + Hess f + f h0
    over sample points, with the s-derivative by a central difference."""
    if points is None:
        points = sphere_points(12, seed)
    worst = 0.0
    for z in np.atleast_2d(points):
        frame = tangent_frame(z)
        hp = pulled_link_tensor(f, family, h_fd, z, frame)
        hm = pulled_link_tensor(f, family, -h_fd, z, frame)
        lhs = (hp - hm) / (2.0 * h_fd)
        rhs = np.empty((3, 3))
        k0 = np.asarray(family.prime0(z))
        for a in range(3):
            for b in range(3):
                rhs[a, b] = (frame[a] @ k0 @ frame[b]
                             + f.sphere_hessian(z, frame[a], frame[b])
                             + f.value(z) * (frame[a] @ frame[b]))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
