import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cyl.minmax as minmax
import cyl.quadrature as quadrature
from cyl.constants import sobolev_constants
from cyl.geometry.cnc import CutoffProfile
from cyl.green import RadialChart, matching_constant, sphere_kernel
from cyl.interaction import curves
from cyl.minmax import (D2, PathConfig, build_path, exponents_admissible,
                        fit_expansion_A, glued_data, quotient_double,
                        quotient_interp)
from cyl.quadrature import QuadratureSpec

K = sobolev_constants()
SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
PATH = PathConfig()
ROUND, FLAT = RadialChart.round(), RadialChart.flat()


def interp_leg(eps, lam, spec):
    """quotient_interp on the INTERP leg of the default path at eps:
    t = eps^alpha, tau = eps^omega."""
    return quotient_interp(eps, lam, spec, eps ** PATH.alpha,
                           eps ** PATH.omega, PATH.delta)


def test_d2_chain_rules():
    x = np.array([0.3, 0.7])
    y = np.array([0.2, 0.5])
    X = D2.var_x(x)
    Y = D2.var_y(y)
    f = (X * Y).cos() + (X / Y) ** 2.0
    h = 1e-7
    fv = lambda a, b: np.cos(a * b) + (a / b) ** 2
    assert_allclose(f.v, fv(x, y), rtol=1e-14)
    assert_allclose(f.dx, (fv(x + h, y) - fv(x - h, y)) / (2 * h), rtol=1e-6)
    assert_allclose(f.dy, (fv(x, y + h) - fv(x, y - h)) / (2 * h), rtol=1e-6)
    g = (1.0 - X.cos()) / (X * X)
    assert np.all(np.isfinite(g.v))


def _dense(a):
    """[v, dx, dy] of a D2 or a plain operand, an absent partial as zeros."""
    if not isinstance(a, D2):
        return [a, 0.0, 0.0]
    return [a.v] + [np.zeros_like(a.v) if p is None else p
                    for p in (a.dx, a.dy)]


# the operators as they were written on explicit zero partials
_DENSE = {
    "+": lambda a, b: [a[k] + b[k] for k in range(3)],
    "-": lambda a, b: [a[k] - b[k] for k in range(3)],
    "*": lambda a, b: [a[0] * b[0], a[1] * b[0] + a[0] * b[1],
                       a[2] * b[0] + a[0] * b[2]],
    "/": lambda a, b: (lambda inv, q: [q, (a[1] - q * b[1]) * inv,
                                       (a[2] - q * b[2]) * inv])(
        1.0 / b[0], a[0] * (1.0 / b[0])),
}
_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _same_floats(got: D2, want):
    """got matches the dense [v, dx, dy] as floats; an absent partial must
    be 0 there (a zero may change sign)."""
    for g, w in zip((got.v, got.dx, got.dy), want):
        if g is None:
            assert not np.any(w)
        else:
            assert np.array_equal(g, np.broadcast_to(w, np.shape(g)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_absent_partials_are_exact_zeros(data):
    # None partials skip the work of zeros: on finite operands (values away
    # from 0, so every quotient is finite) each operation gives the floats
    # of the dense formulas, and a partial absent from both sides stays
    # absent
    n = data.draw(st.integers(1, 4), label="points")
    floats = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)

    def d2():
        v = np.array(data.draw(floats))
        v = np.where(v < 0.0, v - 0.1, v + 0.1)
        return D2(v, *(data.draw(st.none() | floats.map(np.array))
                       for _ in "xy"))

    a = d2()
    kind = data.draw(st.sampled_from(["D2", "array", "float"]))
    b = d2() if kind == "D2" else _dense(d2())[0] if kind == "array" \
        else data.draw(st.floats(0.1, 10.0))
    for name, op in _OPS.items():
        _same_floats(op(a, b), _DENSE[name](_dense(a), _dense(b)))
        if kind == "float":  # the reflected operator
            _same_floats(op(b, a), _DENSE[name](_dense(b), _dense(a)))
    p = data.draw(st.floats(-3.0, 3.0), label="p")
    x = D2(np.abs(a.v), a.dx, a.dy)
    w = x.v ** (p - 1)
    s = data.draw(floats.map(np.array), label="slope")
    ad = _dense(a)
    for got, want in ((x ** p, [x.v * w, p * w * ad[1], p * w * ad[2]]),
                      (a.chain(a.v, s), [a.v, s * ad[1], s * ad[2]]),
                      (a.apply(np.sin, np.cos),
                       [np.sin(a.v), np.cos(a.v) * ad[1],
                        np.cos(a.v) * ad[2]]),
                      (a.cos(), [np.cos(a.v), -np.sin(a.v) * ad[1],
                                 -np.sin(a.v) * ad[2]]),
                      (a.exp(), [np.exp(a.v), np.exp(a.v) * ad[1],
                                 np.exp(a.v) * ad[2]])):
        _same_floats(got, want)
        assert (got.dx is None, got.dy is None) == (a.dx is None,
                                                    a.dy is None)


def test_an_array_on_the_left_of_a_d2_defers_to_its_reflected_operator():
    # NumPy must not broadcast over a D2 as an object: an ndarray or a NumPy
    # scalar on the left reaches D2's reflected operators
    a = D2(np.array([0.4, -1.3, 2.2]), np.array([1.0, 0.5, -2.0]), None)
    for b in (np.array([0.7, 3.0, -0.6]), np.float64(1.7)):
        for name, op in _OPS.items():
            got = op(b, a)
            assert isinstance(got, D2), name
            _same_floats(got, _DENSE[name](_dense(b), _dense(a)))
            assert got.dy is None


def test_factors_of_one_variable_carry_one_partial():
    # var_x has no y-partial and var_y no x-partial; every function of one
    # variable, a batch's per-run factors and their spread keep it absent
    x, y = np.array([0.3, 0.7]), np.array([0.2, 0.5])
    for X, has, lacks in ((D2.var_x(x), "dx", "dy"),
                          (D2.var_y(y), "dy", "dx")):
        for f in (X * X, X + 1.0, 1.0 - X, 2.0 / X, X / (X * 3.0),
                  X ** 2.5, X.cos(), X.exp(), X.apply(np.sin, np.cos),
                  X.chain(X.v, X.v)):
            assert getattr(f, has) is not None and getattr(f, lacks) is None
    XY = D2.var_x(x) * D2.var_y(y)
    assert XY.dx is not None and XY.dy is not None
    desc = minmax._leg_descriptor(PATH, 1.5)
    data = glued_data(desc.epsilon, desc.t, desc.tau)
    xi = np.repeat([0.5, 1.0], 3) * data.s_tau
    b = minmax._LegBatch(data, xi, np.tile([0.5, 1.5, 2.5], 2), curvature=2)
    for f in (b.xi_run, b.sin_xi, b.cos_xi, b.spread(b.xi_run.cos())):
        assert f.dy is None and f.dx is not None
    assert b.sin_xi.dx.shape == xi.shape
    assert minmax._w_glued(b, True).dy is None  # the glue-ball bubble


def test_flat_double_matches_interaction_curves():
    # cross-module oracle: Q on the complete flat cone = f(t/eps)/sqrt(2)
    for eps, t in ((1.0, 2.0), (0.5, 0.8)):
        q, e, ok = quotient_double(eps, t, None, SPEC, FLAT)
        assert ok
        cur = curves(eps, [t], QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
        target = cur.f[0] / math.sqrt(2.0)
        assert abs(q - target) <= 3.0 * (e + cur.f_err[0]) + 1e-10


def test_flat_double_dilation_invariance():
    q1, e1, ok1 = quotient_double(1.0, 2.0, None, SPEC, FLAT)
    q2, e2, ok2 = quotient_double(0.25, 0.5, None, SPEC, FLAT)
    assert ok1 and ok2
    assert abs(q1 - q2) <= e1 + e2 + 1e-10


def test_single_endpoint_band():
    eps = 1e-4
    q, e, ok = quotient_double(eps, 0.0, 0.025, SPEC, ROUND)
    assert ok
    assert K.Ys <= q <= K.Ys + 0.5
    assert e < 1e-6


def test_double_leg_expansion_value():
    eps = 1e-4
    q, e, ok = quotient_double(eps, eps ** 0.6, 0.025, SPEC, ROUND)
    assert ok
    gap = 6.0 * K.S4 - q
    # within 15% of the leading expansion at this finite eps
    assert gap == pytest.approx(K.A * eps ** 0.8, rel=0.15)


def test_glued_data_mass_identity():
    eps = 1e-4
    gd = glued_data(eps, eps ** 0.6, eps ** 0.7)
    assert gd.A_q == 0.25 / math.sin(gd.t) ** 2
    # CNC kills the O(1) self part: the closed form is the axis limit of
    # e^{-f/2} (Gs(s) + Gs(2t - s)) - rho(s)^-2, quadratic Richardson in s
    s = gd.t * np.array([1e-2, 5e-3, 2.5e-3])
    lifted = np.exp(-0.5 * gd.f1.value(s)) \
        * (sphere_kernel(s) + sphere_kernel(2.0 * gd.t - s))
    design = np.stack([np.ones(3), s, s ** 2], axis=1)
    limit = np.linalg.solve(design, lifted - gd.f1.radius(s) ** -2.0)[0]
    assert limit == pytest.approx(gd.A_q, rel=1e-6)
    assert gd.nu > 0.0
    # the exact radius and its Newton inverse meet to a few ulp
    assert gd.f1.radius(gd.s_tau) == pytest.approx(gd.tau, rel=2.0 ** -50)
    assert gd.f1.radius(gd.s_2tau) == pytest.approx(2.0 * gd.tau,
                                                    rel=2.0 ** -50)
    with pytest.raises(ValueError):
        glued_data(1e-4, 0.5, 0.3)  # annulus reaches the partner


@pytest.mark.parametrize("t", [0.317, math.pi / 2], ids=["0.317", "pi/2"])
def test_glue_ball_meets_the_flat_bubble_closed_forms(t):
    # on the primary glue ball {xi <= s_tau} the glued profile is U(rho) in
    # gbar, flat there up to O(s^4), so the ball's rows (mirror factor 2
    # included) are the flat bubble's over B_tau, W = 1 + (tau/eps)^2; an
    # inexact rho shows here (the 800-point spline gave dN = -3.9e-9 at pi/2)
    eps = PATH.epsilon
    tau = PATH.tau_of_t(t)
    d = glued_data(eps, t, tau)

    def rows(xi, eta):
        b = minmax._LegBatch(d, xi, eta, curvature=2)
        u = minmax._w_glued(b, True)
        return np.stack([b.energy_density(u), u.v ** 4]) * (2.0 * b.measure())

    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15).with_grading(
        ((0.0, 0.0), (eps, math.inf)))
    res = quadrature.integrate_rect2d(rows, spec, (0.0, d.s_tau),
                                      (0.0, math.pi))
    assert res.converged
    W = 1.0 + (tau / eps) ** 2
    N = 48.0 * math.pi ** 2 * K.c4 ** 2 \
        * (1.0 / 3.0 - 1.0 / W + 1.0 / W ** 2 - 1.0 / (3.0 * W ** 3))
    D = 2.0 * math.pi ** 2 * K.c4 ** 4 \
        * (1.0 / 6.0 - 1.0 / (2.0 * W ** 2) + 1.0 / (3.0 * W ** 3))
    assert abs(res.value[0] - N) <= 1e-10
    assert abs(res.value[1] - D) <= 1e-12


def test_glued_deficit_follows_the_mass_at_small_eps():
    # (6 S4 - Q) sin^2 t / (A eps^2) -> 1; at eps = 1e-5 the 800-point rho
    # spline read 1.254 with a bar of 0.013
    cfg = PathConfig(epsilon=1e-5)
    t = math.pi / 2.0
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-13)
    q, err, ok = minmax.GluedLeg(cfg.epsilon, t, cfg.tau_of_t(t)).quotient(
        cfg.delta, spec)
    assert ok
    scale = K.A * cfg.epsilon ** 2 / math.sin(t) ** 2
    assert abs((6.0 * K.S4 - q) / scale - 1.0) <= 3.0 * err / scale


def test_nu_matching_formulas():
    # A_q = 0 closed form of the matching constant
    nu = matching_constant(1e-3, 1e-1, 0.0)
    expect_nu = (1.0 + 1e4) / (K.c4 * 1e3 * 1e-2)
    assert nu == pytest.approx(expect_nu, rel=1e-12)


def test_glued_mid_leg_margin_matches_mass():
    # Q = 6 S4 - 4 A A_q eps^2 (1 + o(1)) with A_q = 1/(4 sin^2 t)
    eps = 1e-4
    cfg = PathConfig(epsilon=eps)
    for t in (0.9441, math.pi / 2.0):
        tau = cfg.tau_of_t(t)
        q, e, ok = quotient_interp(eps, 1.0, SPEC, t, tau, cfg.delta)
        assert ok
        margin = 6.0 * K.S4 - q
        pred = 4.0 * K.A * (0.25 / math.sin(t) ** 2) * eps ** 2
        assert margin == pytest.approx(pred, rel=0.02)
        assert margin > 3.0 * e


def test_glued_pole_swap_symmetry():
    eps = 1e-4
    cfg = PathConfig(epsilon=eps)
    t = 0.7
    tau = cfg.tau_of_t(t)
    q1, e1, ok1 = quotient_interp(eps, 1.0, SPEC, t, tau, cfg.delta)
    q2, e2, ok2 = quotient_interp(eps, 1.0, SPEC, math.pi - t, tau, cfg.delta)
    assert ok1 and ok2
    assert abs(q1 - q2) <= e1 + e2 + 1e-12


def test_interp_endpoints_match_neighbor_legs():
    eps = 1e-4
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    qd, ed, okd = quotient_double(eps, eps ** 0.6, 0.025, spec, ROUND)
    q0, e0, ok0 = interp_leg(eps, 0.0, spec)
    assert abs(q0 - qd) <= 10.0 * (e0 + ed)
    qg, eg, okg = quotient_interp(eps, 1.0, spec, eps ** 0.6, eps ** 0.7,
                                  0.025)
    q1, e1, ok1 = interp_leg(eps, 1.0, spec)
    assert abs(q1 - qg) <= 10.0 * (e1 + eg)
    assert okd and ok0 and okg and ok1


def test_interp_meets_double_within_their_bars_at_full_spec():
    # at lam = 0 the INTERP leg is the DOUBLE bubble pair at t = eps^0.6
    eps = 1e-4
    q0, e0, ok0 = interp_leg(eps, 0.0, SPEC)
    qd, ed, okd = quotient_double(eps, eps ** 0.6, 0.025, SPEC, ROUND)
    assert ok0 and okd
    assert abs(q0 - qd) <= e0 + ed


def test_interp_converges_near_the_core_at_small_eps():
    # the smallest eps of the criterion-11 fit
    q, err, ok = interp_leg(3e-5, 0.5, SPEC)
    assert ok and err < 1e-7


def test_leg_distances_match_the_ambient_chord_form_near_the_core():
    # theta, z_par and d2 of a chart batch within a few eps of the bubble
    # center, against 2 atan2(|p - q|, |p + q|) for the lifted points of the
    # (xi, eta) plane; the center sits at (1, 0, 0), the pole N and the
    # partner at distance t and 2t along eta = 0
    eps = 3e-5
    t = eps ** 0.6
    data = glued_data(eps, t, eps ** 0.7)
    rng = np.random.default_rng(3)
    xi = eps * np.exp(rng.uniform(math.log(0.3), math.log(3.0), 200))
    eta = rng.uniform(0.0, math.pi, 200)
    b = minmax._LegBatch(data, xi, eta, chart=True)
    p = np.stack([np.cos(xi), np.sin(xi) * np.cos(eta),
                  np.sin(xi) * np.sin(eta)], axis=1)

    def chord_distance(a):
        q = np.array([math.cos(a), math.sin(a), 0.0])
        return 2.0 * np.arctan2(np.linalg.norm(p - q, axis=1),
                                np.linalg.norm(p + q, axis=1))

    theta = chord_distance(t)
    # theta cos(psi), with the unit tangent at N toward the center
    z_par = theta * (p @ [math.sin(t), -math.cos(t), 0.0]) / np.sin(theta)
    assert_allclose(b.theta.v, theta, rtol=1e-14)
    assert_allclose(b.z_par.v, z_par, rtol=1e-14)
    assert_allclose(b.d2.v, chord_distance(2.0 * t), rtol=1e-14)
    assert_allclose(b.theta.v ** 2 + t * t - 2.0 * t * b.z_par.v,
                    theta ** 2 + t * t - 2.0 * t * z_par, rtol=1e-10)
    # the closed-form partials against central differences
    h = 1e-5 * xi
    for name in ("theta", "z_par", "d2"):
        def at(x, e):
            return getattr(minmax._LegBatch(data, x, e, chart=True), name).v

        g = getattr(b, name)
        for got, fd in ((g.dx, (at(xi + h, eta) - at(xi - h, eta)) / (2 * h)),
                        (g.dy, (at(xi, eta + 1e-7) - at(xi, eta - 1e-7))
                         / 2e-7)):
            assert_allclose(got, fd, rtol=0, atol=1e-5 * np.abs(fd).max())


def test_interp_lambda_continuity():
    eps = 1e-4
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    runs = [interp_leg(eps, lam, spec) for lam in (0.4, 0.5, 0.6)]
    assert all(ok for _, _, ok in runs)
    qs = [q for q, _, _ in runs]
    d1 = abs(qs[1] - qs[0])
    d2 = abs(qs[2] - qs[1])
    # Q(psi_lambda) is continuous with O(dlam) modulus
    assert d1 < 0.01 and d2 < 0.01
    for q in qs:
        assert 6.0 * K.S4 - q == pytest.approx(K.A * eps ** 0.8, rel=0.15)


def test_each_leg_integrates_numerator_and_denominator_on_one_mesh(
        monkeypatch):
    # one 2-d integral per quotient: the DOUBLE (theta, psi) reduction on
    # the S^4 chart, or the GLUED and INTERP (xi, v) rectangle of the glue
    # zone and the whole far region; numerator and fourth power share it
    calls = []
    for name in ("integrate_rect2d", "integrate_axisym_sphere"):
        def counting(*args, name=name, integrate=getattr(minmax, name)):
            calls.append(name)
            return integrate(*args)

        monkeypatch.setattr(minmax, name, counting)
    eps = 1e-4
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    cfg = PathConfig(epsilon=eps)
    for engine, quotient in (
            ("integrate_axisym_sphere",
             lambda: quotient_double(eps, eps ** 0.6, cfg.delta, spec, ROUND)),
            ("integrate_rect2d", lambda: interp_leg(eps, 0.5, spec)),
            ("integrate_rect2d",
             lambda: quotient_interp(eps, 1.0, spec, 0.9441,
                                     cfg.tau_of_t(0.9441), cfg.delta))):
        calls.clear()
        assert quotient()[2]
        assert calls == [engine]


@pytest.mark.parametrize("model, delta", [("football", 0.025), ("flat", None)])
@pytest.mark.parametrize("eps, t", [(1e-4, 1e-4 ** 0.6), (1e-3, 0.01)])
def test_double_leg_keeps_the_bits_of_its_hand_weighted_rectangle(model, delta,
                                                                  eps, t):
    # DOUBLE once applied w(theta) 4 pi sin^2 psi itself on integrate_rect2d;
    # integrate_axisym_sphere applies it in the same order
    football = model == "football"
    weight = (lambda th: np.sin(th) ** 3) if football else (lambda th: th ** 3)
    chi = CutoffProfile(delta, 2.0 * delta) if delta is not None else None

    def integrand(theta_v, psi_v):
        theta, psi = D2.var_x(theta_v), D2.var_y(psi_v)
        u = minmax._double_bubble_chart(eps, t, theta, theta * psi.cos(), chi)
        sin_th = np.sin(theta_v) if football else theta_v
        grad2 = u.dx ** 2 + (u.dy / sin_th) ** 2
        return np.stack([6.0 * grad2 + (12.0 if football else 0.0) * u.v ** 2,
                         u.v ** 4]) \
            * (weight(theta_v) * 4.0 * math.pi * np.sin(psi_v) ** 2)

    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    gspec = spec.with_grading(((t, 0.0), (eps, eps / t)),
                              ((t, math.pi), (eps, eps / t)))
    res = quadrature.integrate_rect2d(
        integrand, gspec, (1e-12, 2.0 * delta if football else math.inf),
        (0.0, math.pi))
    expect = minmax._quotient_from(res[0], res[1])
    got = quotient_double(eps, t, delta, spec, ROUND if football else FLAT)
    assert [x.hex() for x in got[:2]] == [x.hex() for x in expect[:2]]
    assert got[2] == expect[2]


def test_each_quotient_integrates_its_fluxes_in_one_call(monkeypatch):
    # the G-G flux, and on the INTERP leg the G-e~ flux, are the rows of
    # one 1-d vector integral; the glued leg has no cross flux to integrate
    rows = []
    integrate = minmax.integrate_radial

    def spying(f, interval, spec):
        res = integrate(f, interval, spec)
        rows.append(np.shape(res.value))
        return res

    monkeypatch.setattr(minmax, "integrate_radial", spying)
    eps = 1e-4
    cfg = PathConfig(epsilon=eps)
    for quotient, shape in (
            (lambda: quotient_interp(eps, 1.0, SPEC, 0.9441,
                                     cfg.tau_of_t(0.9441), cfg.delta), (1,)),
            (lambda: interp_leg(eps, 0.5, SPEC), (2,))):
        rows.clear()
        assert quotient()[2]
        assert rows == [shape]


def test_leg_meshes_are_seeded_one_box_wide_in_the_angle(monkeypatch):
    # the GLUED/INTERP core, zone circles, band edges and the circle through
    # N are constant in v, and at t = 0 the DOUBLE pair is constant in psi:
    # no angular ladder, the angle is split only where its error asks for it
    seeds = []
    adapt = quadrature._adapt

    def spying(panels, g, grids, specs, params=None):
        if panels is quadrature._panels_2d:  # not the 1-d fluxes
            seeds.extend(len(ybreaks) - 1 for _, ybreaks in grids)
        return adapt(panels, g, grids, specs, params)

    monkeypatch.setattr(quadrature, "_adapt", spying)
    eps = 1e-4
    assert interp_leg(eps, 0.5, SPEC)[2]
    assert quotient_double(eps, 0.0, 0.025, SPEC, ROUND)[2]
    assert seeds == [1, 1]


def test_leg_seed_breaks_hold_every_zone_edge(monkeypatch):
    # the near/far switch at s_2tau, the U/Green match at s_tau and both
    # square-root ends of e0 are seed breaks, so no box straddles one; at
    # t = pi/2 the domain ends where the polar-cap mirror ball begins
    breaks = []
    adapt = quadrature._adapt

    def spying(panels, g, grids, specs, params=None):
        if panels is quadrature._panels_2d:  # not the 1-d fluxes
            breaks.extend(np.array(xbreaks) for xbreaks, _ in grids)
        return adapt(panels, g, grids, specs, params)

    monkeypatch.setattr(quadrature, "_adapt", spying)
    eps = 1e-4
    cfg = PathConfig(epsilon=eps)
    for t, tau, lam in ((eps ** 0.6, eps ** 0.7, 0.5),
                        (0.9441, cfg.tau_of_t(0.9441), 1.0),
                        (math.pi / 2, cfg.tau_of_t(math.pi / 2), 1.0)):
        breaks.clear()
        assert quotient_interp(eps, lam, SPEC, t=t, tau=tau,
                               delta=cfg.delta)[2]
        (xb,) = breaks
        d = glued_data(eps, t, tau)
        s = d.s_2tau
        edges = [d.s_tau, s]
        if t < math.pi / 2:
            # both band ends lie below pi at these t
            edges += [2 * t - s, 2 * t + s]
            assert xb[-1] == math.pi
        else:
            assert xb[-1] == math.pi - s
        assert np.isin(edges, xb).all(), (t, edges)


def test_glued_and_interp_meshes_evaluate_fewer_points(monkeypatch):
    # machine-independent cost of one evaluation through build_path's specs:
    # one mesh per quotient, held to the leg's totals, against the 85 275
    # (INTERP, mu = 1.1) and 90 450 (GLUED, mu = 2.05) points of a near-zone
    # mesh plus one mesh per far band, each band held to its own totals
    points = []
    panels = quadrature._panels_2d

    def counting(*args):
        out = panels(*args)
        points.append(out[-1])
        return out

    monkeypatch.setattr(quadrature, "_panels_2d", counting)
    for mu, leg, before in ((1.1, "INTERP", 85_275), (2.05, "GLUED", 90_450)):
        points.clear()
        prof = build_path(PathConfig(), [mu])
        assert prof.legs == [leg] and prof.converged.all()
        assert sum(points) < before, (leg, sum(points))


def test_path_error_bars_cover_a_recompute_at_a_hundredth_of_the_tolerance():
    # one mu inside each leg and at its ends: DOUBLE at 0.2 and 1, INTERP at
    # 1.1 and 2, GLUED at 2.5, each through build_path's own specs
    mus = [0.2, 1.0, 1.1, 2.0, 2.5]
    cfg = PathConfig()
    tight = replace(cfg, rel_tol=cfg.rel_tol / 100, abs_tol=cfg.abs_tol / 100)
    prof, ref = build_path(cfg, mus), build_path(tight, mus)
    assert prof.legs == ["DOUBLE", "DOUBLE", "INTERP", "INTERP", "GLUED"]
    assert prof.converged.all() and ref.converged.all()
    assert np.all(np.abs(prof.Q - ref.Q) <= prof.Q_err)


def test_excluded_band_angle_keeps_its_digits_toward_the_band_ends():
    # e0 against a 40-digit arccos at 1e-3 to 1e-11 of the band width from
    # either end, where the angle goes to 0 (a cosine near 1); outside the
    # band it is exactly 0
    import mpmath
    eps = 1e-4
    data = glued_data(eps, eps ** 0.6, eps ** 0.7)
    t, s = data.t, data.s_2tau
    lo, hi = 2 * t - s, 2 * t + s
    frac = 10.0 ** -np.arange(3, 12)
    xi = np.concatenate([lo + frac * (hi - lo), hi - frac * (hi - lo)])
    with mpmath.workdps(40):
        tm, sm = mpmath.mpf(t), mpmath.mpf(s)
        ref = [float(mpmath.acos((mpmath.cos(sm) - mpmath.cos(x)
                                  * mpmath.cos(2 * tm))
                                 / (mpmath.sin(x) * mpmath.sin(2 * tm))))
               for x in map(mpmath.mpf, xi)]
    assert_allclose(minmax._excluded_angle(data, xi), ref, rtol=1e-15,
                    atol=0.0)
    outside = np.array([1e-14, s, lo, np.nextafter(lo, 0.0), hi,
                        np.nextafter(hi, 4.0), 0.5, math.pi - 1e-3])
    assert np.all(minmax._excluded_angle(data, outside) == 0.0)


@pytest.mark.parametrize("mu", [1.5, 2.4])
def test_leg_integrand_is_exact_on_any_point_order(monkeypatch, mu):
    # the integrand evaluates xi-only factors once per run of equal xi; the
    # engine's layout (runs of 15) only makes that cheaper, so a permuted
    # batch, one point alone and a batch missing whole zones, or holding
    # one side of the e~-free radius alone, give the bits of the
    # engine-ordered batch
    desc = minmax._leg_descriptor(PATH, mu)
    data = glued_data(desc.epsilon, desc.t, desc.tau)
    chi = CutoffProfile(PATH.delta, 2.0 * PATH.delta)
    captured = []
    monkeypatch.setattr(minmax, "integrate_rect2d",
                        lambda F, *args: captured.append(F))
    minmax._leg_integrals(data, desc.lam, chi, SPEC)
    F, = captured
    s1, s2, t = data.s_tau, data.s_2tau, data.t
    r = minmax._e_free_radius(t, chi)
    # columns in the ball, the annulus, the far zone, the mirror band and
    # on both sides of xi = t + 2 delta
    cols = np.concatenate([np.geomspace(1e-3, 0.9, 4) * s1,
                           s1 + np.linspace(0.1, 0.9, 3) * (s2 - s1),
                           s2 + np.geomspace(1e-3, 1.0, 5) * (math.pi - s2),
                           2.0 * t + np.linspace(-0.9, 0.9, 3) * s2,
                           [t + 2.0 * PATH.delta, r, np.nextafter(r, 4.0),
                            r * 1.01]])
    cols = np.sort(cols[cols < math.pi])
    v = np.linspace(0.02, 0.98, 15)
    xi, vv = np.repeat(cols, 15), np.tile(v, len(cols))
    ref = F(xi, vv)
    assert ref.shape == (2, len(xi)) and np.isfinite(ref).all()
    assert (ref[1] > 0.0).all()
    perm = np.random.default_rng(7).permutation(len(xi))
    assert np.array_equal(F(xi[perm], vv[perm]), ref[:, perm])
    for k in (0, 60, 150, len(xi) - 1):
        assert np.array_equal(F(xi[k:k + 1], vv[k:k + 1]), ref[:, k:k + 1])
    for part in (xi <= s1, xi > s2, (xi > s1) & (xi <= s2),
                 (xi > s2) & (xi <= r), xi > r):
        assert np.array_equal(F(xi[part], vv[part]), ref[:, part])
    if desc.lam < 1.0:  # e~ reaches past s_2tau, and ends at r
        assert (ref[0, (xi > s2) & (xi <= t + 2.0 * PATH.delta)] != 0.0).any()
        assert (ref[0, xi > r] == 0.0).all()


@pytest.mark.parametrize("t", [1e-4 ** 0.6, 0.3, 1.2])
def test_e_tilde_is_exactly_zero_past_its_free_radius(t):
    # theta >= xi - t, so one ulp past the split radius every chart radius
    # clears chi_delta's support 2 delta, and e~ is an exact 0 with exact 0
    # partials: the far zone may skip the chart there
    data = glued_data(PATH.epsilon, t, PATH.tau_of_t(t))
    chi = CutoffProfile(PATH.delta, 2.0 * PATH.delta)
    eta = np.linspace(0.0, math.pi, 401)
    xi = np.full_like(eta, np.nextafter(minmax._e_free_radius(t, chi), 4.0))
    b = minmax._LegBatch(data, xi, eta, chart=True, curvature=2)
    assert (b.theta.v >= 2.0 * PATH.delta).all()
    e = minmax._e_tilde(b, chi)
    for part in (e.v, e.dx, e.dy):
        assert np.array_equal(part, np.zeros_like(xi))


def test_green_value_is_the_value_of_the_green_lift():
    # the far zone reads the Green lift as values alone: on a batch across
    # every zone, at each jet order, they are the bits of green_lift().v
    desc = minmax._leg_descriptor(PATH, 1.5)
    data = glued_data(desc.epsilon, desc.t, desc.tau)
    cols = np.concatenate([[0.5 * data.s_tau, 1.5 * data.s_tau],
                           np.geomspace(2.0 * data.s_2tau, 3.0, 6)])
    xi = np.repeat(cols, 5)
    eta = np.tile(np.linspace(0.1, 3.0, 5), len(cols))
    want = minmax._LegBatch(data, xi, eta, chart=True,
                            curvature=2).green_lift().v
    for order in (0, 1, 2):
        b = minmax._LegBatch(data, xi, eta, chart=order > 0, curvature=order)
        assert np.array_equal(b.green_value(), want)
        if order:
            assert np.array_equal(b.green_lift().v, want)


def test_legs_keep_their_bits():
    # (Q, Q_err) of one leg of each kind at the path's spec and one flux
    # integral, pinned by float.hex: the integrands skip partials and zones
    # that no reader uses, and skipping them must not move a bit; the
    # INTERP mesh reaches xi > t + 2 delta, where e~ is exactly 0
    legs = {mu: minmax._leg_descriptor(PATH, mu) for mu in (0.5, 1.5, 2.4)}
    pins = {0.5: ("0x1.eb9354cf572ecp+5", "0x1.1e0a16053a0ecp-20"),
            1.5: ("0x1.ec462a2d2cd8ep+5", "0x1.a46e3d89a3db6p-21"),
            2.4: ("0x1.ec7fc70887b05p+5", "0x1.3102c02cb4fdep-26")}
    for mu, leg in legs.items():
        q, err, ok = minmax.evaluate_quotient(
            PATH, leg, PATH.spec().scaled(leg.tol_scale))
        assert ok and (q.hex(), err.hex()) == pins[mu], leg.variant
    interp = legs[1.5]
    assert 0.0 < interp.lam < 1.0
    flux = minmax._flux_integrals(
        glued_data(interp.epsilon, interp.t, interp.tau), interp.lam,
        CutoffProfile(PATH.delta, 2.0 * PATH.delta),
        PATH.spec().scaled(interp.tol_scale))
    assert (flux.value.hex(), flux.error_estimate.hex(), flux.evaluations) \
        == ("0x1.340e20a938aa7p-2", "0x1.9290e53ca90c4p-34", 75)


def test_path_config_validation():
    assert exponents_admissible(0.6, 0.7)
    assert not exponents_admissible(0.7, 0.6)
    with pytest.raises(ValueError):
        PathConfig(alpha=0.7, omega=0.6)
    with pytest.raises(ValueError):
        PathConfig(epsilon=0.1)  # eps^alpha >= delta/4
    with pytest.raises(ValueError):
        PathConfig(epsilon=5e-4, delta=0.2)  # glue annulus overlap


@pytest.mark.parametrize("mu", [-0.5, 5.5, math.nan])
def test_build_path_rejects_a_mu_off_the_path(monkeypatch, mu):
    # [-0.5, 5.5] was once evaluated as a DOUBLE leg at t = -0.5 eps^alpha
    # twice, converged; now the caller's mu is named before any evaluation
    calls = []
    monkeypatch.setattr(minmax, "evaluate_quotient",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=rf"mu must lie in \[0, 5\], got {mu}"):
        build_path(PathConfig(), [0.5, mu, 5.0 - mu])
    assert calls == []


@pytest.mark.parametrize("grid", [[], [[1.0, 2.0]], 2.5],
                         ids=["empty", "2-d", "scalar"])
def test_build_path_rejects_a_grid_that_is_no_sequence_of_mu(monkeypatch,
                                                             grid):
    # an empty grid once returned a profile whose max_Q and endpoint_values
    # raised NumPy's zero-size reduction error, and a 2-d grid died on
    # float() of a row; the grid is named before any evaluation
    calls = []
    monkeypatch.setattr(minmax, "evaluate_quotient",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="mu_grid must be a non-empty 1-d"):
        build_path(PathConfig(), grid)
    assert calls == []


def test_run_config_is_the_path_config():
    # the run's path parameters have one home: a RunConfig builds the path
    # a PathConfig with the same values builds
    from cyl.config import RunConfig
    assert isinstance(RunConfig(), PathConfig)
    run = build_path(RunConfig(mu_points=11))
    path = build_path(PathConfig(mu_points=11))
    assert np.array_equal(run.Q, path.Q)
    assert np.array_equal(run.Q_err, path.Q_err)


def test_build_path_coarse(monkeypatch):
    # criterion 10's spec: at rel 1e-8 the GLUED contract allows a bar of
    # about 6e-7, above the 4.6e-7 margin at mu = 2.5, so 3 bars could not
    # be certified below 6 S4 there
    cfg = PathConfig(epsilon=1e-4, mu_points=11, rel_tol=1e-9, abs_tol=1e-13)
    evaluated = []
    evaluate = minmax.evaluate_quotient

    def counting(config, desc, spec=None):
        evaluated.append((desc.variant, desc.t, desc.tau, desc.lam))
        return evaluate(config, desc, spec)

    monkeypatch.setattr(minmax, "evaluate_quotient", counting)
    prof = build_path(cfg)
    # one evaluation per mirror pair mu, 5 - mu, none repeated
    assert len(evaluated) == len(set(evaluated)) == (len(prof.mu) + 1) // 2
    assert np.array_equal(prof.mu, 5.0 - prof.mu[::-1])
    # five-leg structure
    assert prof.legs[0] == "DOUBLE" and prof.legs[-1] == "DOUBLE"
    assert "GLUED" in prof.legs and "INTERP" in prof.legs
    margins = 6.0 * K.S4 - prof.Q
    assert np.all(margins > 0.0)
    assert np.all(margins > 3.0 * prof.Q_err)
    q0, q1 = prof.endpoint_values()
    assert abs(q0 - K.Ys) < 0.5 and abs(q1 - K.Ys) < 0.5
    # profile is symmetric under the pole swap mu -> 5 - mu
    assert np.array_equal(prof.Q, prof.Q[::-1])
    assert np.array_equal(prof.Q_err, prof.Q_err[::-1])
    # every point met its error contract
    assert prof.converged.all()
    # transitions: the mu = 1, 2 junction descriptors evaluate consistently
    i1 = int(np.argmin(np.abs(prof.mu - 1.0)))
    i2 = int(np.argmin(np.abs(prof.mu - 2.0)))
    assert prof.Q[i1] == pytest.approx(prof.Q[i2], abs=0.01)


def test_fit_expansion_double():
    # mu = 1: the DOUBLE leg's end, the pair at t = eps^alpha
    fit = fit_expansion_A(PathConfig(), [1.2e-4, 8.49e-5, 6e-5, 4.24e-5, 3e-5],
                          1.0,
                          spec=QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
    assert abs(fit.A_hat - K.A) / K.A < 0.10
    assert abs(fit.exponent_free - 0.8) / 0.8 < 0.10
    for mu in (-0.1, 5.1, math.nan):
        with pytest.raises(ValueError, match="mu must lie in"):
            fit_expansion_A(PathConfig(), [1e-4, 5e-5], mu)
    with pytest.raises(ValueError, match="at least 3 distinct epsilons"):
        fit_expansion_A(PathConfig(), [1e-4, 5e-5, 1e-4], 1.0)


def test_fit_expansion_glued_leg_values():
    # mu = 2, the INTERP leg's end, evaluates exactly the glued quotient at
    # t = eps^alpha, tau = eps^omega
    spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-11)
    fit = fit_expansion_A(PathConfig(), [6e-5, 1e-4, 3e-5], 2.0, spec=spec)
    assert list(fit.eps_sequence) == [1e-4, 6e-5, 3e-5]
    assert fit.converged.all()
    for eps, q in zip(fit.eps_sequence, fit.Q_values):
        assert q == quotient_interp(eps, 1.0, spec, eps ** 0.6, eps ** 0.7,
                                    0.025)[0]


def test_single_bubble_band_wide_chart():
    # the single singular bubble approaches Y4/sqrt2 from above; at eps = 1e-2
    # a wide chart keeps cutoff effects inside the half-unit band
    q, e, ok = quotient_double(1e-2, 0.0, 0.45, SPEC, ROUND)
    assert ok
    assert K.Ys < q <= K.Ys + 0.5
