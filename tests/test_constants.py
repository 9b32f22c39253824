import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyl.constants import bubble, energy_level, sobolev_constants
from cyl.geometry.cnc import CutoffProfile
from cyl.minmax import D2, _double_bubble_chart
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

    def integrand(r):
        return bubble(r * r) ** 4 * 2.0 * math.pi ** 2 * r ** 3

    res = integrate_radial(integrand, (0.0, math.inf), spec).expect()
    assert abs(res.value - 1.0) < 1e-10


def test_dirichlet_energy_equals_S4():
    # the radial derivative the legs take: forward mode through r^2
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)

    def integrand(r):
        x = D2.var_x(r)
        return bubble(x * x).dx ** 2 * 2.0 * math.pi ** 2 * r ** 3

    res = integrate_radial(integrand, (0.0, math.inf), spec).expect()
    assert abs(res.value - K.S4) < 1e-8


def test_bubble_values():
    assert_allclose(bubble(0.0), K.c4, rtol=1e-15)
    assert_allclose(bubble(1.0), K.c4 / 2.0, rtol=1e-15)
    assert_allclose(bubble(0.0, 2.0), K.c4 / 2.0, rtol=1e-15)
    assert bubble(62.25) > 0.0  # at (3, -2, 0.5, 7)


def _hex(*arrays):
    return [float(x).hex() for a in arrays for x in np.ravel(a)]


def test_bubble_is_the_profile_the_interaction_and_path_layers_wrote_out():
    # the forms it replaced: c4 / (1 + r2) on the interaction grid, and
    # (c4/eps) / (1 + r2 (1/eps^2)) on the path's forward-mode values
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


def test_bubble_keeps_its_bits_at_unit_width():
    # eps = 1 skips the product by 1/eps^2 = 1.0, which is exact: values and
    # a forward-mode value's partials, pinned by float.hex, do not move
    r2 = np.array([0.0, 0.3, 2.5, 17.0, 1e6])
    assert _hex(bubble(r2)) == [
        "0x1.c41927ae54895p-1", "0x1.5bc494ad7c1adp-1", "0x1.025784639e055p-2",
        "0x1.91dd789af5cf6p-5", "0x1.da0f14e9630d7p-21"]
    assert _hex(bubble(0.7), bubble(0.7, 1)) == ["0x1.09f0adee139c1p-1"] * 2
    x = D2.var_x(np.array([0.2, 1.9]))
    got = bubble(x * x)
    assert got.dy is None
    assert _hex(got.v, got.dx) == [
        "0x1.b2b5b9d8db218p-1", "0x1.8846b1b3956dcp-3",
        "-0x1.4e6467931eb75p-2", "-0x1.4359ecfea67cfp-3"]


def test_bubble_scaling_l4_norm():
    # unit L^4 norm for random eps
    rng = np.random.default_rng(7)
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)
    for _ in range(3):
        eps = float(rng.uniform(0.05, 3.0))

        def integrand(r):
            return bubble(r * r, eps) ** 4 * 2.0 * math.pi ** 2 * r ** 3

        res = integrate_radial(integrand, (0.0, math.inf),
                               spec.with_grading((0.0, eps))).expect()
        assert abs(res.value - 1.0) < 1e-9


def _shifted_bubble(eps, center):
    """x -> U_eps(x - center) on points of R^4."""
    return lambda q: bubble(float(np.sum((q - center) ** 2)), eps)


def test_bubble_gradient_analytic_vs_fd():
    # the D2 gradient, two coordinates at a time, against central differences
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(5):
        eps = float(rng.uniform(0.3, 2.0))
        c, p = rng.normal(size=4), rng.normal(size=4)
        f = _shifted_bubble(eps, c)
        for k in (0, 2):
            x = D2.var_x(p[k]) - c[k]
            y = D2.var_y(p[k + 1]) - c[k + 1]
            rest = float(np.sum(np.delete(p - c, [k, k + 1]) ** 2))
            u = bubble(x * x + y * y + rest, eps)
            for j, du in ((k, u.dx), (k + 1, u.dy)):
                e = h * np.eye(4)[j]
                assert abs(du - (f(p + e) - f(p - e)) / (2 * h)) < 5e-9


def test_bubble_gradient_examples():
    x = D2.var_x(np.array([0.0, 1.0]))
    assert_allclose(bubble(x * x).dx, [0.0, -K.c4 / 2.0], rtol=1e-15,
                    atol=1e-300)


def test_pde_residual_stencil():
    # -Delta U = S4 U^3 at random points and parameters, to stencil order
    rng = np.random.default_rng(11)
    h = 1e-3
    for _ in range(6):
        f = _shifted_bubble(float(rng.uniform(0.5, 2.0)), rng.normal(size=4))
        p = rng.normal(size=4)
        lap = sum(f(p + e) + f(p - e) - 2.0 * f(p)
                  for e in h * np.eye(4)) / h ** 2
        assert abs(-lap - K.S4 * f(p) ** 3) < 50.0 * h ** 2


def test_double_bubble():
    # the pair the legs use: even in the axial coordinate bit for bit, and
    # twice the bubble at distance t at the chart origin, cut off or not
    rng = np.random.default_rng(5)
    origin = D2.var_x(np.zeros(1))
    for cut in (None, CutoffProfile(0.3, 0.6)):
        for eps, t in ((1.0, 1.0), (0.7, 0.0), (0.7, 2.5), (1e-3, 1e-2)):
            theta = D2.var_x(rng.uniform(0.0, 0.8, 50))
            axial = theta * D2.var_y(rng.uniform(0.0, math.pi, 50)).cos()
            u = _double_bubble_chart(eps, t, theta, axial, cut)
            w = _double_bubble_chart(eps, t, theta, axial * -1.0, cut)
            assert _hex(u.v, u.dx, u.dy) == _hex(w.v, w.dx, w.dy)
            u0 = _double_bubble_chart(eps, t, origin, origin, cut)
            assert_allclose(u0.v, 2.0 * bubble(t * t, eps), rtol=1e-15)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        energy_level(0, 0)
    with pytest.raises(ValueError):
        energy_level(-1, 2)


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
