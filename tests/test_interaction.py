import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyl.config import RunConfig
from cyl.constants import sobolev_constants
from cyl.green import RadialChart
import cyl.interaction as interaction
import cyl.quadrature as quadrature
from cyl.interaction import (KINDS, asymptotic_slope, curves,
                             derivative_quadratures, interaction_integral,
                             verify_b_prime_identity, verify_monotonicity)
from cyl.minmax import quotient_double
from cyl.quadrature import QuadratureSpec, integrate_biradial

K = sobolev_constants()
SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
# the sweep tolerances, and a recompute at a thousandth of them
LOOSE = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)


def test_limit_row_t_to_zero():
    cur = curves(1.0, [1e-3], SPEC)
    assert_allclose(cur.a[0], 24.0 * K.S4, rtol=1e-5)
    assert_allclose(cur.b[0], 4.0, rtol=1e-6)
    assert_allclose(cur.f[0], 6.0 * K.S4, rtol=1e-5)


def test_far_field_f_correction():
    t = 1e3
    cur = curves(1.0, [t], SPEC)
    upper = 6.0 * math.sqrt(2.0) * K.S4
    correction = upper - cur.f[0]
    predicted = 6.0 * math.sqrt(2.0) * K.B / t ** 2
    assert abs(correction - predicted) < 0.05 * predicted


def test_bracket_strict_at_unit_separation():
    cur = curves(1.0, [1.0], SPEC)
    lo, hi = cur.bracket_margins()
    assert lo[0] > 3.0 * cur.f_err[0]
    assert hi[0] > 3.0 * cur.f_err[0]


def test_bracket_across_grid_with_margin():
    grid = np.geomspace(0.1, 1e3, 8)
    cur = curves(1.0, grid, SPEC)
    assert cur.converged.all()
    lo, hi = cur.bracket_margins()
    assert np.all(lo > 3.0 * cur.f_err)
    assert np.all(hi > 3.0 * cur.f_err)
    assert cur.in_bracket().all()
    assert np.all(cur.f == cur.a / cur.b)


def test_scale_invariance():
    c1 = curves(1.0, [2.0], SPEC)
    c2 = curves(2.0, [4.0], SPEC)
    for x, y, ex, ey in ((c1.a, c2.a, c1.a_err, c2.a_err),
                         (c1.c, c2.c, c1.c_err, c2.c_err),
                         (c1.f, c2.f, c1.f_err, c2.f_err),
                         (c1.b, c2.b, c1.b_err, c2.b_err)):
        assert abs(x[0] - y[0]) <= ex[0] + ey[0] + 1e-12


def _unfolded(kind, tau):
    # the integrands over the whole zeta line, before the mirror fold
    def F(z, p):
        rp = (z - tau) ** 2 + p * p
        rm = (z + tau) ** 2 + p * p
        up, um = K.c4 / (1.0 + rp), K.c4 / (1.0 + rm)
        return {"U3V": up ** 3 * um,
                "U2V2": up ** 2 * um ** 2,
                "GRAD": 4.0 * K.c4 ** 2 * (z * z - tau * tau + p * p)
                / ((1.0 + rp) ** 2 * (1.0 + rm) ** 2)}[kind]

    return F


def test_folded_rows_match_the_full_line():
    for kind in KINDS:
        for tau in (0.1, 1.7, 1000.0):
            half = interaction_integral(kind, 1.0, tau, SPEC).expect()
            full = integrate_biradial(
                _unfolded(kind, tau),
                SPEC.with_grading(((tau, 0.0), 1.0), ((-tau, 0.0), 1.0)),
                zeta_domain=(-math.inf, math.inf)).expect()
            assert abs(half.value - full.value) <= \
                half.error_estimate + full.error_estimate, (kind, tau)
            assert half.evaluations < full.evaluations, (kind, tau)


def _exact_integrals(tau):
    # closed forms of I31 and I22 at eps = 1 (Lorentz product p of the pair
    # on S^4), at the working mpmath precision
    import mpmath
    p = 1 + 2 * tau ** 2
    q = 2 * tau * mpmath.sqrt(1 + tau ** 2)
    L = 4 * mpmath.asinh(tau)
    i31 = mpmath.mpf(3) / 4 * (2 * p / q ** 2 - L / q ** 3)
    i22 = mpmath.mpf(3) / 4 * (2 * p * L - 4 * q) / q ** 3
    return i31, i22


def _exact_rows(t):
    # the curve rows a, b, c the closed forms give, at 30 digits
    import mpmath
    with mpmath.workdps(30):
        i31, i22 = _exact_integrals(mpmath.mpf(t))
        s4 = 8 * mpmath.pi / mpmath.sqrt(6)
        c4sq = mpmath.sqrt(6) / mpmath.pi
        return {"a": 12 * s4 + 12 * (8 / c4sq) * i31,
                "b": mpmath.sqrt(2 + 8 * i31 + 6 * i22), "c": i22}


def _exact_primes(t):
    # a' = 12 S4 dI31/dt and c' = dI22/dt, the closed forms differentiated
    # by mpmath at 30 digits
    import mpmath
    with mpmath.workdps(30):
        s4 = 8 * mpmath.pi / mpmath.sqrt(6)
        t = mpmath.mpf(t)
        return (12 * s4 * mpmath.diff(lambda x: _exact_integrals(x)[0], t),
                mpmath.diff(lambda x: _exact_integrals(x)[1], t))


def test_curves_meet_the_exact_forms():
    cfg = RunConfig()
    cur = curves(1.0, cfg.t_grid, cfg.spec())
    assert cur.converged.all()
    for i, t in enumerate(cfg.t_grid):
        for name, exact in _exact_rows(t).items():
            dev = float(abs(getattr(cur, name)[i] - exact))
            assert dev <= getattr(cur, name + "_err")[i], (name, t)


def test_flat_double_leg_meets_the_exact_forms():
    # on the complete flat cone the DOUBLE quotient is f(t/eps)/sqrt(2),
    # f = a/b, a scale-free oracle for the path's (theta, psi) reduction
    spec = RunConfig().spec()
    for eps, t in ((1.0, 0.1), (1.0, 0.5), (1.0, 2.0), (0.5, 0.8),
                   (1.0, 10.0), (0.01, 0.3), (1.0, 100.0)):
        q, err, ok = quotient_double(eps, t, None, spec, RadialChart.flat())
        assert ok, (eps, t)
        rows = _exact_rows(t / eps)
        exact = rows["a"] / rows["b"] / math.sqrt(2.0)
        assert float(abs(q - exact)) <= err, (eps, t)


@functools.cache
def _default_primes():
    cfg = RunConfig()
    return derivative_quadratures(1.0, cfg.t_grid, cfg.spec())


@pytest.mark.parametrize("i", [
    pytest.param(i, id=f"{t:g}", marks=pytest.mark.xfail(
        strict=True, reason="defect 2: the tan map rounds the node positions "
                            "near zeta = 2t; a' misses by 2.3 bars"))
    if t == 1000.0 else pytest.param(i, id=f"{t:g}")
    for i, t in enumerate(RunConfig().t_grid)])
def test_derivative_rows_meet_the_exact_forms(i):
    # one sweep over the default grid, as criterion 5 and interaction-sweep
    # take it
    t = RunConfig().t_grid[i]
    for name, res, exact in zip(("a'", "c'"), _default_primes()[i],
                                _exact_primes(t)):
        assert res.converged, (name, t)
        assert float(abs(res.value - exact)) <= res.error_estimate, (name, t)


def test_grad_equals_s4_u3v():
    # -Lap U = S4 U^3 gives G = S4 I31, which the curve point's a assumes;
    # the GRAD row is its independent check, one sweep per kind over the
    # default grid
    cfg = RunConfig()
    g, u = (interaction_integral(kind, 1.0, cfg.t_grid, cfg.spec())
            for kind in ("GRAD", "U3V"))
    for t, gt, ut in zip(cfg.t_grid, g, u):
        assert gt.converged and ut.converged, t
        dev = abs(gt.value - K.S4 * ut.value)
        assert dev <= gt.error_estimate + K.S4 * ut.error_estimate, t


def test_far_field_values():
    g = interaction_integral("GRAD", 1.0, 100.0, SPEC).expect()
    assert abs(g.value - K.B * 1e-4) < 0.02 * K.B * 1e-4
    u = interaction_integral("U3V", 1.0, 100.0, SPEC).expect()
    assert abs(u.value - 0.75e-4) < 0.02 * 0.75e-4


def test_u2v2_log_decay():
    v100 = interaction_integral("U2V2", 1.0, 100.0, SPEC).expect().value
    v200 = interaction_integral("U2V2", 1.0, 200.0, SPEC).expect().value
    ratio = v100 / v200
    # t^-4 log t law: ratio = 16 * log(100)/log(200) ~ 13.90; the log factor
    # shifts the ratio below the bare 16
    assert 16.0 * 0.8 < ratio < 16.0 * 1.25
    predicted = 16.0 * math.log(100.0) / math.log(200.0)
    assert ratio == pytest.approx(predicted, rel=0.05)


def test_b_prime_identity_residual():
    for t in (0.5, 2.0):
        res = verify_b_prime_identity(1.0, t, 1e-3, SPEC)
        assert res < 1e-5


def test_b_prime_identity_second_order():
    r_h = verify_b_prime_identity(1.0, 2.0, 2e-3, SPEC)
    r_h2 = verify_b_prime_identity(1.0, 2.0, 1e-3, SPEC)
    assert r_h / r_h2 == pytest.approx(4.0, rel=0.6)


def test_a_der_bracket_nonnegative():
    rng = np.random.default_rng(2)
    from cyl.constants import bubble
    for _ in range(40):
        z = rng.uniform(0.0, 5.0)
        p = rng.uniform(0.0, 5.0)
        t = rng.uniform(0.05, 4.0)
        near = bubble((z - 2 * t) ** 2 + p * p) ** 3
        far = bubble((z + 2 * t) ** 2 + p * p) ** 3
        assert near - far >= 0.0


def test_monotonicity_report():
    grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    rep = verify_monotonicity(1.0, grid, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13))
    assert rep.all_negative
    assert rep.cross_consistent
    assert rep.first_violation == -1


def test_derivative_quadratures_negative():
    for t in (0.3, 1.0, 5.0):
        a_prime, c_prime = derivative_quadratures(1.0, t, SPEC)
        assert a_prime.expect().value < 0.0
        assert c_prime.expect().value < 0.0


def test_derivative_quadratures_keep_relative_digits_far_out():
    # at the sweep tolerances c'(1000) is about -4e-14, below abs_tol; the
    # error bar must still be relative to the value, for a' as well
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
    for res in derivative_quadratures(1.0, 1000.0, spec):
        res.expect()
        assert res.value < 0.0
        assert res.error_estimate <= 1e-6 * abs(res.value)


def test_slope_fits():
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-15)
    seq = [12.5, 25.0, 50.0, 100.0]
    fit = asymptotic_slope("GRAD", 1.0, seq, spec)
    assert abs(fit.coefficient - K.B) < 0.02 * K.B
    fit31 = asymptotic_slope("U3V", 1.0, seq, spec)
    assert abs(fit31.coefficient - 0.75) < 0.02 * 0.75
    fseq = [125.0, 250.0, 500.0, 1000.0]
    ffit = asymptotic_slope("f-curve", 1.0, fseq, spec)
    target = -6.0 * math.sqrt(2.0) * K.B
    assert abs(ffit.coefficient - target) < 0.05 * abs(target)


def test_slope_preconditions():
    with pytest.raises(ValueError):
        asymptotic_slope("GRAD", 1.0, [5.0, 10.0, 20.0], SPEC)  # smallest < 10
    with pytest.raises(ValueError):
        asymptotic_slope("GRAD", 1.0, [10.0, 15.0, 30.0], SPEC)  # ratio < 2
    with pytest.raises(ValueError, match="three t values"):
        asymptotic_slope("GRAD", 1.0, [10.0, 20.0], SPEC)
    with pytest.raises(ValueError, match="unknown slope kind"):
        asymptotic_slope("U4", 1.0, [10.0, 20.0, 40.0], SPEC)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_bad_scales_are_rejected(bad):
    with pytest.raises(ValueError, match="finite and > 0"):
        verify_monotonicity(bad, [0.5, 1.0], SPEC)
    with pytest.raises(ValueError, match="finite and > 0"):
        verify_monotonicity(1.0, [bad, 1.0], SPEC)
    with pytest.raises(ValueError, match="finite and > 0"):
        curves(1.0, [bad], SPEC)
    with pytest.raises(ValueError, match="finite and > 0"):
        curves(bad, [1.0], SPEC)
    for call in (interaction_integral, derivative_quadratures):
        args = ("GRAD",) if call is interaction_integral else ()
        with pytest.raises(ValueError, match="finite and > 0"):
            call(*args, 1.0, bad, SPEC)
        with pytest.raises(ValueError, match="finite and > 0"):
            call(*args, bad, 1.0, SPEC)
    with pytest.raises(ValueError, match="finite and > 0"):
        verify_b_prime_identity(bad, 1.0, 1e-3, SPEC)
    with pytest.raises(ValueError, match="finite and > 0"):
        asymptotic_slope("GRAD", 1.0, [12.5, 25.0, bad], SPEC)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        interaction_integral("XXX", 1.0, 1.0, SPEC)
    with pytest.raises(ValueError):
        interaction_integral("GRAD", -1.0, 1.0, SPEC)
    with pytest.raises(ValueError):
        verify_b_prime_identity(1.0, 1e-4, 1e-3, SPEC)
    with pytest.raises(ValueError):
        verify_monotonicity(1.0, [1.0, 0.5], SPEC)


@pytest.mark.parametrize("kind", KINDS)
def test_error_bars_cover_a_tighter_recompute(kind):
    for t in (0.1, 1.0, 1000.0):
        res = interaction_integral(kind, 1.0, t, LOOSE).expect()
        ref = interaction_integral(kind, 1.0, t, TIGHT).expect()
        assert abs(res.value - ref.value) <= res.error_estimate, (kind, t)


def test_curve_bars_cover_a_tighter_recompute():
    # I31 and I22 share one mesh, each row held to its own tolerance
    grid = [0.1, 1.0, 1000.0]
    res, ref = curves(1.0, grid, LOOSE), curves(1.0, grid, TIGHT)
    assert res.converged.all() and ref.converged.all()
    for name in ("a", "b", "c", "f"):
        dev = np.abs(getattr(res, name) - getattr(ref, name))
        assert np.all(dev <= getattr(res, name + "_err")), name


@pytest.mark.parametrize("t", [
    0.1, 1.0,
    # the a' row misses by 2.2x: its peak sits at zeta = 2000 on the tan
    # axis, where rounding the nodes' working coordinates near pi/2 moves the
    # value by about 2e-10 relative, which no box error estimate counts;
    # refining the shared mesh for c' takes a''s estimate below that floor
    pytest.param(1000.0, marks=pytest.mark.xfail(
        strict=True, reason="tan-axis node rounding floor at zeta = 2t")),
])
def test_derivative_bars_cover_a_tighter_recompute(t):
    res = derivative_quadratures(1.0, t, LOOSE)
    ref = derivative_quadratures(1.0, t, TIGHT)
    for name, r, q in zip(("a'", "c'"), res, ref):
        assert abs(r.expect().value - q.expect().value) <= r.error_estimate, name


def _hex(*arrays):
    return [float(x).hex() for a in arrays for x in np.ravel(a)]


@pytest.mark.parametrize("batch", [None, 225, 1 << 40])
def test_a_sweep_gives_each_integral_the_bits_it_gets_alone(monkeypatch,
                                                            batch):
    # each integral of a sweep splits the boxes it would split alone and
    # sums them in the same order, at the default batch bound, at one box
    # per integrand call and with every round in one call
    if batch is not None:
        monkeypatch.setattr(quadrature, "_MAX_BATCH_POINTS", batch)
    grid = np.geomspace(0.1, 1000.0, 7)
    sweep = curves(1.0, grid, LOOSE)
    alone = [curves(1.0, [t], LOOSE) for t in grid]
    for name in ("a", "b", "c", "f", "a_err", "b_err", "c_err", "f_err",
                 "converged"):
        assert _hex(getattr(sweep, name)) == _hex(
            *(getattr(cur, name) for cur in alone)), name
    seq = [12.5, 25.0, 50.0, 100.0]
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-15)
    each = [interaction_integral("GRAD", 1.0, t, spec) for t in seq]
    fit = asymptotic_slope("GRAD", 1.0, seq, spec)
    assert _hex(fit.values) == _hex([res.value for res in each])
    # value, error, points and flag of every integral
    assert interaction_integral("GRAD", 1.0, seq, spec) == each
    assert derivative_quadratures(1.0, grid, LOOSE) == [
        derivative_quadratures(1.0, t, LOOSE) for t in grid]


def test_curves_make_one_engine_call_per_sweep(monkeypatch):
    # the two rows of a point share a mesh, and the points share a sweep
    calls = []
    real = interaction.integrate_biradial

    def counted(*args, **kwargs):
        calls.append(len(kwargs["params"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(interaction, "integrate_biradial", counted)
    curves(1.0, [0.5, 2.0, 8.0], SPEC)
    assert calls == [3]
