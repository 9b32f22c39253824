import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyl.geometry.cnc import (cnc_polynomial, cnc_profile, cutoff_profile,
                              verify_cnc)
from cyl.geometry.curvature import curvature_at
from cyl.geometry.fields import (FlatField, ForcedFDField,
                                 WarpedRadialField, polynomial_profile,
                                 round_profile)
from cyl.geometry.football import (ConeMetric, LinkFamily, chart_to_sphere,
                                   football_metric, pullback_via_phi,
                                   regularity_probe, sphere_distance_chart)
from cyl.geometry.links import (LinkFunction, LinkTensorFamily, link_flow,
                                sphere_points, tangent_frame,
                                verify_first_order_identity)
from cyl.quadrature import QuadratureSpec, integrate_radial


# ----------------------------------------------------------------------- fields

def test_round_profile_series_matches_closed_form():
    # c = sin^2(r)/u with r = sqrt(u), and its u-derivatives, in 40 digits
    import mpmath
    prof = round_profile()
    us = np.geomspace(1e-6, (math.pi / 2) ** 2, 40)
    got = np.array([prof.c(us), prof.cp(us), prof.cpp(us)])
    with mpmath.workdps(40):
        ref = []
        for u in us:
            u = mpmath.mpf(u)
            r = mpmath.sqrt(u)
            sn, cs = mpmath.sin(r), mpmath.cos(r)
            c1 = (r * sn * cs - sn ** 2) / u ** 2
            c2 = (mpmath.cos(2 * r) - mpmath.sin(2 * r) / (2 * r)) / (2 * u ** 2) \
                - 2 * c1 / u
            ref.append([float(sn ** 2 / u), float(c1), float(c2)])
    ref = np.array(ref).T
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


def test_warped_field_analytic_derivatives_match_fd():
    fld = WarpedRadialField(round_profile())
    forced = ForcedFDField(fld, 1e-5)
    x = np.array([0.4, -0.2, 0.1, 0.3])
    assert_allclose(fld.d1(x), forced.d1(x), atol=1e-9)
    assert_allclose(fld.d2(x), forced.d2(x), atol=1e-5)


# ------------------------------------------------------------------- pullbacks

def test_pullback_exact_cone_is_flat():
    cone = ConeMetric(LinkFamily(conformal_profile=polynomial_profile(1.0)))
    fld = pullback_via_phi(cone, 0.5)
    for x in ([0.2, 0.1, 0.0, -0.3], [0.01, 0.0, 0.0, 0.0]):
        assert_allclose(fld.value(np.asarray(x)), np.eye(4), atol=1e-15)


def test_pullback_one_plus_s2_family():
    # h(s) = (1 + s^2) h0  ->  g = delta + |x|^2 (delta - x x^T / |x|^2)
    cone = ConeMetric(LinkFamily(conformal_profile=polynomial_profile(1.0, 1.0)))
    fld = pullback_via_phi(cone, 0.5)
    x = np.array([0.2, -0.1, 0.25, 0.05])
    u = x @ x
    expect = np.eye(4) + u * (np.eye(4) - np.outer(x, x) / u)
    assert_allclose(fld.value(x), expect, atol=1e-14)


def test_pullback_football_matches_round_sphere():
    model = football_metric(0.4)
    fld = pullback_via_phi(model.cone, 0.5)
    x = np.array([0.1, 0.2, -0.05, 0.15])
    assert_allclose(fld.value(x), model.chart.value(x), atol=1e-13)
    # O(|x|^4) agreement with the round normal-coordinate metric is exact here
    snap = curvature_at(fld, x)
    assert_allclose(snap.R, 12.0, rtol=1e-10)


def test_football_chart_refuses_radii_its_series_cannot_serve():
    # round_profile's series holds to u = (pi/2)^2 only; at r = 2 it is
    # already 1.4e-13 relative off, and 3.2e-4 at r = 3.132
    cone = football_metric(0.4).cone
    assert cone.s_max == math.pi / 2.0
    with pytest.raises(ValueError, match="exceeds the cone chart"):
        pullback_via_phi(cone, 2.0)


def test_tensor_pullback_agrees_with_conformal_route():
    prof = polynomial_profile(1.0, 1.0)
    cone_c = ConeMetric(LinkFamily(conformal_profile=prof))
    fam = LinkTensorFamily(lambda s, z: (1.0 + s * s) * np.eye(4),
                           lambda z: np.zeros((4, 4)))
    cone_t = ConeMetric(LinkFamily(tensor_family=fam))
    f1 = pullback_via_phi(cone_c, 0.5)
    f2 = pullback_via_phi(cone_t, 0.5)
    x = np.array([0.15, -0.2, 0.1, 0.05])
    assert_allclose(f1.value(x), f2.value(x), atol=1e-13)


# ------------------------------------------------------------------- curvature

def test_curvature_flat_and_round():
    snap = curvature_at(FlatField(), [0.3, 0.1, -0.2, 0.0])
    assert snap.R == 0.0
    assert np.abs(snap.Ric).max() == 0.0
    fld = WarpedRadialField(round_profile())
    s = curvature_at(fld, [0.35, 0.1, -0.2, 0.4])
    assert_allclose(s.R, 12.0, atol=1e-9)
    assert_allclose(s.Ric, 3.0 * s.g, atol=1e-9)
    assert s.weyl_trace_norm() < 1e-12
    assert np.abs(s.W).max() < 1e-12
    assert s.first_bianchi_norm() < 1e-12


def test_curvature_fd_route_second_order():
    fld = WarpedRadialField(round_profile())
    x = np.array([0.3, 0.1, -0.2, 0.4])
    errs = []
    for h in (2e-3, 1e-3):
        s = curvature_at(ForcedFDField(fld, h), x, h)
        errs.append(abs(s.R - 12.0))
    assert errs[1] < errs[0] / 2.5


# ------------------------------------------------------------- regularity probe

def test_regularity_probe_homogeneous_degree_one():
    a = LinkFunction.quadratic(np.diag([1.0, 0.5, -0.3, 0.2]))

    def b(x):
        r = np.linalg.norm(x)
        if r == 0.0:
            return 0.0
        return r * a.value(x / r)

    radii = [0.2, 0.1, 0.05, 0.025]
    rep1 = regularity_probe(b, 1, radii)
    assert rep1.bounded
    rep2 = regularity_probe(b, 2, radii)
    assert not rep2.bounded
    assert rep2.fitted_rate == pytest.approx(-1.0, abs=0.2)


def test_regularity_probe_degree_two_and_flat():
    a = LinkFunction.quadratic(np.diag([1.0, 0.5, -0.3, 0.2]))

    def b(x):
        r = np.linalg.norm(x)
        if r == 0.0:
            return 0.0
        return r * r * a.value(x / r)

    rep = regularity_probe(b, 2, [0.2, 0.1, 0.05, 0.025])
    assert rep.bounded
    flat = regularity_probe(FlatField(), 2, [0.2, 0.1, 0.05])
    assert flat.bounded
    assert np.max(flat.sups) < 1e-10


# ------------------------------------------------------------------ link gauge

def test_link_flow_properties():
    f = LinkFunction.quadratic(np.diag([0.3, -0.1, -0.1, -0.1]))
    for z in sphere_points(5, 9):
        frame = tangent_frame(z)
        # time additivity, of the point and of its pushed frame
        a, da = link_flow(f, 0.08, z, frame)
        b, db = link_flow(f, 0.05, *link_flow(f, 0.03, z, frame))
        assert_allclose(a, b, atol=1e-10)
        assert_allclose(da, db, atol=1e-10)
        # the pushed frame is the differential: a central difference of flows
        # from geodesically displaced starts
        h = 1e-5
        for u, du in zip(frame, da):
            zp = math.cos(h) * z + math.sin(h) * u
            zm = math.cos(h) * z - math.sin(h) * u
            fd = (link_flow(f, 0.08, zp, np.empty((0, 4)))[0]
                  - link_flow(f, 0.08, zm, np.empty((0, 4)))[0]) / (2.0 * h)
            assert_allclose(du, fd, atol=1e-8)
        # ascent of f along the flow
        assert f.value(a) >= f.value(z) - 1e-12
    # constant f flows trivially, frame included
    z = sphere_points(1, 4)[0]
    c, dc = link_flow(LinkFunction.constant(2.0), 0.3, z, tangent_frame(z))
    assert_allclose(c, z, atol=1e-12)
    assert_allclose(dc, tangent_frame(z), atol=1e-12)


def test_first_order_identity_and_gauge():
    fq = LinkFunction.quadratic(np.diag([0.3, -0.1, -0.1, -0.1]))
    k = np.diag([0.1, -0.2, 0.05, 0.0])
    fam = LinkTensorFamily.linear_perturbation(lambda z: k)
    pts = sphere_points(6, 2)
    # O(h^2): each halving of h from 2e-3 to 1.25e-4 divides the residual,
    # and the post-gauge one, by 4
    hs = 2e-3 * 0.5 ** np.arange(5)
    for family in (fam, LinkTensorFamily.gauge_killing(fq)):
        res = np.array([verify_first_order_identity(fq, family, h, points=pts)
                        for h in hs])
        assert res[1] < 1e-3
        ratios = res[:-1] / res[1:]
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios
    # constant f: derivative = h'(0) + kappa h0 exactly (Hessian of const = 0)
    rc = verify_first_order_identity(LinkFunction.constant(0.25), fam, 1e-3,
                                     points=pts)
    assert rc < 1e-6
    # f = 0: derivative = h'(0)
    r0 = verify_first_order_identity(LinkFunction.constant(0.0), fam, 1e-3,
                                     points=pts)
    assert r0 < 1e-9
    # orbifold gauge: h'(0) = -(Hess f + f h0) kills the first-order term
    gauge = LinkTensorFamily.gauge_killing(fq)
    rg = verify_first_order_identity(fq, gauge, 1e-3, points=pts)
    assert rg < 1e-3
    # the gauge family is admissible on RP^3: f is antipodally even
    assert fq.is_even()


# ------------------------------------------------------------------------- cnc

def test_cutoff_profile_bounds():
    t = 0.4
    phi = cutoff_profile(t)
    s = np.linspace(0.0, t, 200)
    assert np.all(phi.value(s[s <= t / 4]) == 1.0)
    assert np.all(phi.value(s[s >= t / 2]) == 0.0)
    assert np.max(np.abs(phi.deriv(s))) <= 20.0 / t
    assert np.max(np.abs(phi.deriv2(s))) <= 120.0 / t ** 2
    # on the band r1 <= s <= r2 the quintic and its derivatives bit for bit
    r1, r2 = phi.r1, phi.r2
    band = np.concatenate([[r1, r2], np.linspace(r1, r2, 37)[1:-1]])
    u = (band - r1) / (r2 - r1)
    assert np.array_equal(phi.value(band),
                          1.0 - (10.0 * u ** 3 - 15.0 * u ** 4 + 6.0 * u ** 5))
    assert np.array_equal(phi.deriv(band),
                          -(30.0 * u ** 2 - 60.0 * u ** 3 + 30.0 * u ** 4) / (r2 - r1))
    assert np.array_equal(phi.deriv2(band),
                          -(60.0 * u - 180.0 * u ** 2 + 120.0 * u ** 3) / (r2 - r1) ** 2)
    # outside it exactly 1 before, 0 beyond, and flat
    before = np.array([-1.0, 0.0, 0.5 * r1, np.nextafter(r1, 0.0)])
    beyond = np.array([np.nextafter(r2, 1.0), 2.0 * r2, 1e9])
    assert np.all(phi.value(before) == 1.0) and np.all(phi.value(beyond) == 0.0)
    for d in (phi.deriv, phi.deriv2):
        assert np.all(d(np.concatenate([before, beyond])) == 0.0)
    # python floats and 0-d arrays: the same formulas on a numpy scalar
    for s0 in (0.3 * r1 + 0.7 * r2, 0.5 * r1, 2.0 * r2):
        u0 = (np.float64(s0) - r1) / (r2 - r1)
        if 0.0 < u0 < 1.0:
            want = (1.0 - (10.0 * u0 ** 3 - 15.0 * u0 ** 4 + 6.0 * u0 ** 5),
                    -(30.0 * u0 ** 2 - 60.0 * u0 ** 3 + 30.0 * u0 ** 4) / (r2 - r1),
                    -(60.0 * u0 - 180.0 * u0 ** 2 + 120.0 * u0 ** 3) / (r2 - r1) ** 2)
        else:
            want = (float(u0 <= 0.0), 0.0, 0.0)
        for x in (s0, np.asarray(s0)):
            assert (float(phi.value(x)), float(phi.deriv(x)),
                    float(phi.deriv2(x))) == want


def test_radial_cnc_exponent():
    t = 0.4
    f = cnc_profile(t)
    s = np.linspace(0.0, t, 200)
    inner, outer = s[s <= t / 4], s[s >= t / 2]
    assert np.all(f.value(inner) == 0.5 * inner ** 2)
    assert np.all(f.value(outer) == 0.0)
    # derivatives against centred differences (grid off the knots t/4, t/2)
    s = np.linspace(0.013, 0.39, 57)
    h = 1e-5
    fd1 = (f.value(s + h) - f.value(s - h)) / (2 * h)
    fd2 = (f.value(s + h) - 2 * f.value(s) + f.value(s - h)) / h ** 2
    value, deriv, deriv2 = f.jet(s)
    assert np.array_equal(value, f.value(s))
    assert_allclose(deriv, fd1, rtol=0, atol=1e-7)
    assert_allclose(deriv2, fd2, rtol=0, atol=1e-5)


def test_cnc_factor_round_is_half_r2():
    fld = WarpedRadialField(round_profile())
    snap = curvature_at(fld, np.zeros(4))
    fac = cnc_polynomial(snap, 0.4)
    z = np.array([0.02, -0.01, 0.015, 0.005])
    assert fac.value(z) == pytest.approx(0.5 * float(z @ z), abs=1e-9)
    assert fac.value(np.zeros(4)) == 0.0


def test_cnc_factor_flat_is_zero():
    snap = curvature_at(FlatField(), np.zeros(4))
    fac = cnc_polynomial(snap, 0.4)
    assert np.abs(fac.quad).max() == 0.0
    assert np.abs(fac.cubic).max() == 0.0


def test_verify_cnc_round_chart():
    fld = WarpedRadialField(round_profile())
    res = verify_cnc(fld, t_cutoff=0.4, h_fd=1e-3)
    for key in ("R", "Ric", "dR", "sym_dRic"):
        assert res[key] < 1e-4
    res2 = verify_cnc(fld, t_cutoff=0.4, h_fd=5e-4)
    assert res2["R"] < res["R"] / 2.0 + 1e-12


# -------------------------------------------------------------------- football

def test_football_model():
    model = football_metric(0.4)
    # cone form h(s) = (sin^2 s / s^2) h0: h(0) = h0, h'(0) = 0
    prof = model.cone.link_family.conformal_profile
    assert prof.c(np.array([1e-14]))[0] == pytest.approx(1.0, abs=1e-12)
    h = 1e-5  # c(s^2) expanded in s: derivative at 0 vanishes
    assert abs(prof.c(np.array([h ** 2]))[0] - 1.0) < 1e-9
    # lifted scalar curvature 12 anywhere in the chart
    s = curvature_at(model.chart, [0.2, 0.1, -0.1, 0.05])
    assert_allclose(s.R, 12.0, atol=1e-9)
    # total volume = half of Vol(S^4)
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)
    vol = integrate_radial(
        lambda t: 0.5 * 2.0 * math.pi ** 2 * np.sin(t) ** 3, (0.0, math.pi), spec)
    assert_allclose(vol.value, model.total_volume, rtol=1e-10)
    # lift points are antipodal in the chart, distance 2t on the sphere
    z1, z2 = model.lift_points(0.2, [1.0, 0.0, 0.0, 0.0])
    assert_allclose(sphere_distance_chart(z1, z2), 0.4, atol=1e-12)
    with pytest.raises(ValueError):
        football_metric(1.0)


def test_chart_sphere_embedding():
    z = np.array([0.3, -0.1, 0.2, 0.0])
    p = chart_to_sphere(z)
    assert p.shape == (5,)
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-14)
    assert sphere_distance_chart(z, np.zeros(4)) == pytest.approx(
        np.linalg.norm(z), abs=1e-13)


def test_pullback_distance_consistency():
    # Gauss lemma on the round chart: g(x) xhat = xhat along a radial line, so
    # the radial lines are unit-speed in s = |x| and orthogonal to the spheres
    # |x| = const; the cone coordinate s is arclength, and a radial segment
    # is as long as its round-sphere distance
    fld = WarpedRadialField(round_profile())
    xhat = np.array([0.2, 0.9, -0.3, 0.1])
    xhat /= np.linalg.norm(xhat)
    for s in (1e-3, 0.1, 0.3, 0.7, 1.4):
        assert_allclose(fld.value(s * xhat) @ xhat, xhat, atol=1e-14)
    assert sphere_distance_chart(0.3 * xhat, 0.1 * xhat) == pytest.approx(
        0.2, abs=1e-14)
