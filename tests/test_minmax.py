import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cyl.minmax as minmax
import cyl.quadrature as quadrature
from cyl.constants import sobolev_constants
from cyl.green import matching_constant, sphere_kernel
from cyl.interaction import curves
from cyl.minmax import (D2, PathConfig, build_path, exponents_admissible,
                        fit_expansion_A, glued_data, quotient_double,
                        quotient_interp)
from cyl.quadrature import QuadratureSpec

K = sobolev_constants()
SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
PATH = PathConfig()


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
    f = (X * Y).sincos()[0] + (X / Y) ** 2.0
    h = 1e-7
    fv = lambda a, b: np.sin(a * b) + (a / b) ** 2
    assert_allclose(f.v, fv(x, y), rtol=1e-14)
    assert_allclose(f.dx, (fv(x + h, y) - fv(x - h, y)) / (2 * h), rtol=1e-6)
    assert_allclose(f.dy, (fv(x, y + h) - fv(x, y - h)) / (2 * h), rtol=1e-6)
    g = (1.0 - X.cos()) / (X * X)
    assert np.all(np.isfinite(g.v))


def test_flat_double_matches_interaction_curves():
    # cross-module oracle: Q on the complete flat cone = f(t/eps)/sqrt(2)
    for eps, t in ((1.0, 2.0), (0.5, 0.8)):
        q, e, ok = quotient_double(eps, t, None, SPEC, model="flat")
        assert ok
        cur = curves(eps, [t], QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
        target = cur.f[0] / math.sqrt(2.0)
        assert abs(q - target) <= 3.0 * (e + cur.f_err[0]) + 1e-10


def test_flat_double_dilation_invariance():
    q1, e1, ok1 = quotient_double(1.0, 2.0, None, SPEC, model="flat")
    q2, e2, ok2 = quotient_double(0.25, 0.5, None, SPEC, model="flat")
    assert ok1 and ok2
    assert abs(q1 - q2) <= e1 + e2 + 1e-10


def test_single_endpoint_band():
    eps = 1e-4
    q, e, ok = quotient_double(eps, 0.0, 0.025, SPEC)
    assert ok
    assert K.Ys <= q <= K.Ys + 0.5
    assert e < 1e-6


def test_double_leg_expansion_value():
    eps = 1e-4
    q, e, ok = quotient_double(eps, eps ** 0.6, 0.025, SPEC)
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
    limit = np.linalg.solve(design, lifted - gd.rho(s) ** -2.0)[0]
    assert limit == pytest.approx(gd.A_q, rel=1e-6)
    assert gd.nu > 0.0
    assert float(gd.rho(gd.s_tau)) == pytest.approx(gd.tau, rel=1e-10)
    assert float(gd.rho(gd.s_2tau)) == pytest.approx(2.0 * gd.tau, rel=1e-10)
    with pytest.raises(ValueError):
        glued_data(1e-4, 0.5, 0.3)  # annulus reaches the partner


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
    qd, ed, okd = quotient_double(eps, eps ** 0.6, 0.025, spec)
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
    qd, ed, okd = quotient_double(eps, eps ** 0.6, 0.025, SPEC)
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
    # one 2-d integral per quotient: the DOUBLE rectangle, or the GLUED and
    # INTERP (xi, v) rectangle of the glue zone and the whole far region;
    # numerator and fourth power share it
    calls = []
    integrate = minmax.integrate_rect2d

    def counting(F, spec, x_domain, y_domain):
        calls.append(x_domain)
        return integrate(F, spec, x_domain, y_domain)

    monkeypatch.setattr(minmax, "integrate_rect2d", counting)
    eps = 1e-4
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    cfg = PathConfig(epsilon=eps)
    for quotient in (
            lambda: quotient_double(eps, eps ** 0.6, cfg.delta, spec),
            lambda: interp_leg(eps, 0.5, spec),
            lambda: quotient_interp(eps, 1.0, spec, 0.9441,
                                    cfg.tau_of_t(0.9441), cfg.delta)):
        calls.clear()
        assert quotient()[2]
        assert len(calls) == 1


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

    def spying(panels, g, xbreaks, ybreaks, spec):
        if panels is quadrature._panels_2d:  # not the 1-d fluxes
            seeds.append(len(ybreaks) - 1)
        return adapt(panels, g, xbreaks, ybreaks, spec)

    monkeypatch.setattr(quadrature, "_adapt", spying)
    eps = 1e-4
    assert interp_leg(eps, 0.5, SPEC)[2]
    assert quotient_double(eps, 0.0, 0.025, SPEC)[2]
    assert seeds == [1, 1]


def test_leg_seed_breaks_hold_every_zone_edge(monkeypatch):
    # the near/far switch at s_2tau, the U/Green match at s_tau and both
    # square-root ends of e0 are seed breaks, so no box straddles one; at
    # t = pi/2 the domain ends where the polar-cap mirror ball begins
    breaks = []
    adapt = quadrature._adapt

    def spying(panels, g, xbreaks, ybreaks, spec):
        if panels is quadrature._panels_2d:  # not the 1-d fluxes
            breaks.append(np.array(xbreaks))
        return adapt(panels, g, xbreaks, ybreaks, spec)

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

    def counting(g, ax, bx, ay, by):
        out = panels(g, ax, bx, ay, by)
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


def test_path_config_validation():
    assert exponents_admissible(0.6, 0.7)
    assert not exponents_admissible(0.7, 0.6)
    with pytest.raises(ValueError):
        PathConfig(alpha=0.7, omega=0.6)
    with pytest.raises(ValueError):
        PathConfig(epsilon=0.1)  # eps^alpha >= delta/4
    with pytest.raises(ValueError):
        PathConfig(epsilon=5e-4, delta=0.2)  # glue annulus overlap


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
    for mu in (-0.1, 2.6, math.nan):
        with pytest.raises(ValueError, match="mu must lie in"):
            fit_expansion_A(PathConfig(), [1e-4, 5e-5], mu)


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
    q, e, ok = quotient_double(1e-2, 0.0, 0.45, SPEC)
    assert ok
    assert K.Ys < q <= K.Ys + 0.5
