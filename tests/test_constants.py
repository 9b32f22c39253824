import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyl.constants import (FlatBubble, bubble, bubble_gradient, bubble_value,
                           double_bubble_value, energy_level,
                           sobolev_constants, stencil_laplacian)
from cyl.quadrature import QuadratureSpec, integrate_radial

K = sobolev_constants()

# frozen oracle values: mpmath evaluation of the closed forms
C4_EXACT = 0.8830044174485630
S4_EXACT = 10.260398641294913
Y4_EXACT = 61.562391847769477
A_EXACT = 46.171793885827107
B_EXACT = 7.695298980971185


def test_closed_forms_against_frozen_oracle():
    assert_allclose(K.c4, C4_EXACT, rtol=1e-15)
    assert_allclose(K.S4, S4_EXACT, rtol=1e-15)
    assert_allclose(K.Y4, Y4_EXACT, rtol=1e-15)
    assert_allclose(K.A, A_EXACT, rtol=1e-15)
    assert_allclose(K.B, B_EXACT, rtol=1e-15)
    assert_allclose(K.c4, (6.0 / math.pi ** 2) ** 0.25, rtol=0)
    assert_allclose(K.S4, 8.0 * math.pi / math.sqrt(6.0), rtol=1e-15)
    assert_allclose(K.A, 6.0 * math.pi * math.sqrt(6.0), rtol=1e-15)
    assert_allclose(K.B, math.pi * math.sqrt(6.0), rtol=1e-15)


def test_structural_invariants():
    assert_allclose(K.S4 * K.c4 ** 2, 8.0, rtol=1e-15)
    assert_allclose(K.A, 6.0 * K.B, rtol=1e-15)
    assert_allclose(K.Y4, 6.0 * K.S4, rtol=1e-15)
    assert_allclose(K.Ys, K.Y4 / math.sqrt(2.0), rtol=1e-15)
    assert K.B / K.S4 == pytest.approx(0.75, abs=1e-15)


def test_normalization_integral():
    # adaptive radial quadrature of int U^4 over R^4, r = tan(theta) mapping
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14)
    b = FlatBubble(1.0)

    def integrand(r):
        return bubble_value(b, np.stack([r, 0 * r, 0 * r, 0 * r], axis=-1)) ** 4 \
            * 2.0 * math.pi ** 2 * r ** 3

    res = integrate_radial(integrand, (0.0, math.inf), spec).expect()
    assert abs(res.value - 1.0) < 1e-10


def test_dirichlet_energy_equals_S4():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
    b = FlatBubble(1.0)

    def integrand(r):
        pts = np.stack([r, 0 * r, 0 * r, 0 * r], axis=-1)
        g = bubble_gradient(b, pts)
        return np.sum(g * g, axis=-1) * 2.0 * math.pi ** 2 * r ** 3

    res = integrate_radial(integrand, (0.0, math.inf), spec).expect()
    assert abs(res.value - K.S4) < 1e-8


def test_bubble_values():
    b = FlatBubble(1.0)
    assert_allclose(bubble_value(b, np.zeros(4)), K.c4, rtol=1e-15)
    assert_allclose(bubble_value(b, [1.0, 0, 0, 0]), K.c4 / 2.0, rtol=1e-15)
    assert_allclose(bubble_value(FlatBubble(2.0), np.zeros(4)), K.c4 / 2.0, rtol=1e-15)
    assert bubble_value(b, np.array([3.0, -2.0, 0.5, 7.0])) > 0.0


def _hex(*arrays):
    return [float(x).hex() for a in arrays for x in np.ravel(a)]


def test_bubble_is_the_profile_the_interaction_and_path_layers_wrote_out():
    # the forms it replaced: c4 / (1 + r2) on the interaction grid, and
    # (c4/eps) / (1 + r2 (1/eps^2)) on the path's forward-mode values
    from cyl.minmax import D2
    rng = np.random.default_rng(3)
    r2 = rng.uniform(0.0, 50.0, 200) ** 2
    assert _hex(bubble(r2)) == _hex(K.c4 / (1.0 + r2))
    x = D2(r2, rng.normal(size=200), rng.normal(size=200))
    for eps in (1.0, 1e-4, 0.37):
        got = bubble(x, eps)
        want = (K.c4 / eps) / (1.0 + x * (1.0 / eps ** 2))
        assert _hex(got.v, got.dx, got.dy) == _hex(want.v, want.dx, want.dy)
    got, want = bubble(x), K.c4 / (1.0 + x)
    assert _hex(got.v, got.dx, got.dy) == _hex(want.v, want.dx, want.dy)


def test_bubble_scaling_l4_norm():
    # unit L^4 norm for random (eps, x0)
    rng = np.random.default_rng(7)
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)
    for _ in range(3):
        eps = float(rng.uniform(0.05, 3.0))
        b = FlatBubble(eps)

        def integrand(r):
            return (K.c4 / eps) ** 4 / (1.0 + (r / eps) ** 2) ** 4 \
                * 2.0 * math.pi ** 2 * r ** 3

        res = integrate_radial(integrand, (0.0, math.inf),
                               spec.with_grading((0.0, eps))).expect()
        assert abs(res.value - 1.0) < 1e-9


def test_bubble_gradient_analytic_vs_fd():
    rng = np.random.default_rng(3)
    for _ in range(5):
        b = FlatBubble(float(rng.uniform(0.3, 2.0)), tuple(rng.normal(size=4)))
        p = rng.normal(size=4)
        g = bubble_gradient(b, p)
        h = 1e-5
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd = (bubble_value(b, p + e) - bubble_value(b, p - e)) / (2 * h)
            assert abs(g[k] - fd) < 5e-9


def test_bubble_gradient_examples():
    b = FlatBubble(1.0)
    assert_allclose(bubble_gradient(b, np.zeros(4)), np.zeros(4), atol=1e-300)
    g = bubble_gradient(b, [1.0, 0, 0, 0])
    assert_allclose(g, [-K.c4 / 2.0, 0, 0, 0], rtol=1e-15)


def test_pde_residual_stencil():
    # -Delta U = S4 U^3 at random points and parameters, to stencil order
    rng = np.random.default_rng(11)
    h = 1e-3
    for _ in range(6):
        b = FlatBubble(float(rng.uniform(0.5, 2.0)), tuple(rng.normal(size=4)))
        p = rng.normal(size=4)
        lap = stencil_laplacian(lambda q: bubble_value(b, q), p, h)
        rhs = K.S4 * bubble_value(b, p) ** 3
        assert abs(-lap - rhs) < 50.0 * h ** 2


def test_double_bubble():
    e1 = np.array([1.0, 0, 0, 0])
    p0 = np.zeros(4)
    assert_allclose(double_bubble_value(1.0, 0.0, e1, p0),
                    2.0 * bubble_value(FlatBubble(1.0), p0), rtol=1e-15)
    assert_allclose(double_bubble_value(1.0, 1.0, e1, p0), K.c4, rtol=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(8):
        p = rng.normal(size=4)
        nu = rng.normal(size=4)
        nu /= np.linalg.norm(nu)
        t = float(rng.uniform(0.0, 3.0))
        assert_allclose(double_bubble_value(0.7, t, nu, p),
                        double_bubble_value(0.7, t, nu, -p), rtol=1e-14)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        FlatBubble(0.0)
    with pytest.raises(ValueError):
        FlatBubble(-1.0)
    with pytest.raises(ValueError):
        double_bubble_value(1.0, 1.0, [1.0, 1.0, 0, 0], np.zeros(4))
    with pytest.raises(ValueError):
        double_bubble_value(-1.0, 1.0, [1.0, 0, 0, 0], np.zeros(4))
    with pytest.raises(ValueError):
        energy_level(0, 0)


def test_energy_level():
    assert_allclose(energy_level(1, 0), K.Y4 / math.sqrt(2.0), rtol=1e-15)
    assert_allclose(energy_level(0, 1), K.Y4, rtol=1e-15)
    assert_allclose(energy_level(2, 0), K.Y4, rtol=1e-15)
    assert_allclose(energy_level(1, 1), math.sqrt(3.0) * K.Y4 / math.sqrt(2.0),
                    rtol=1e-15)
    # monotone in each argument
    for j1 in range(1, 4):
        for j2 in range(0, 4):
            assert energy_level(j1 + 1, j2) > energy_level(j1, j2)
            assert energy_level(j1, j2 + 1) > energy_level(j1, j2)
