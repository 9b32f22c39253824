import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyl.constants import sobolev_constants
from cyl.geometry.fields import (ConformalField, FlatField, WarpedRadialField,
                                 flat_profile, polynomial_profile,
                                 round_profile)
from cyl.green import (KAPPA, AssembledGreen, GreenProblem, RadialChart,
                       chart_for_field, chebyshev_u, cnc_radial_factor,
                       conformal_wrap, extract_mass, flat_ball_green,
                       football_global_green, mass_divergence_sweep,
                       matching_constant, parametrix_residual,
                       parametrix_sweep, round_ball_green, solve_dirichlet_green,
                       solve_harmonic_extension, sphere_kernel,
                       sphere_kernel_slope, zonal_project)
from cyl.quadrature import QuadratureSpec, integrate_axisym_sphere

ROUND = WarpedRadialField(round_profile())


def _sample_points(rng, n, rmax, exclude=None, min_dist=0.05):
    pts = rng.normal(size=(n, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.05, rmax, size=(n, 1))
    if exclude is not None:
        keep = np.linalg.norm(pts - exclude, axis=1) > min_dist
        pts = pts[keep]
    return pts


def test_chebyshev_u_eigen_and_endpoint():
    c = np.linspace(-1, 1, 9)
    U = chebyshev_u(6, c)
    assert_allclose(U[0], np.ones_like(c))
    assert_allclose(U[1], 2 * c)
    for l in range(7):
        assert U[l][-1] == pytest.approx(l + 1.0, rel=1e-12)
    # orthogonality through the projector
    coeffs = zonal_project(lambda g: chebyshev_u(4, np.cos(g))[3], 6)
    expect = np.zeros(7)
    expect[3] = 1.0
    assert_allclose(coeffs, expect, atol=1e-12)


def test_flat_solver_matches_images():
    delta = 1.0
    pole = np.array([0.15, 0.1, 0.0, 0.0])
    ev = solve_dirichlet_green(GreenProblem(FlatField(), pole, delta))
    oracle = flat_ball_green(delta, pole)
    rng = np.random.default_rng(0)
    pts = _sample_points(rng, 40, 0.95, exclude=pole)
    assert np.max(np.abs(ev.value(pts) - oracle.value(pts))) < 1e-7
    assert ev.boundary_trace_defect() < 1e-11


def test_flat_centered_mass():
    ev = solve_dirichlet_green(GreenProblem(FlatField(), np.zeros(4), 1.0))
    exp = extract_mass(ev, np.zeros(4), eps0=0.05)
    assert abs(exp.A_q + 1.0) < 1e-6
    # closed-form scaling: A = -1/delta^2
    for delta in (0.5, 2.0):
        oracle = flat_ball_green(delta, np.zeros(4))
        exp = extract_mass(oracle, np.zeros(4), eps0=0.04 * delta)
        assert abs(exp.A_q + 1.0 / delta ** 2) < 1e-8 / delta ** 2


def test_round_solver_matches_stereographic_oracle():
    pole = np.array([0.1, 0.0, 0.0, 0.0])
    delta = 0.5
    ev = solve_dirichlet_green(GreenProblem(ROUND, pole, delta))
    oracle = round_ball_green(delta, pole)
    rng = np.random.default_rng(3)
    pts = _sample_points(rng, 40, 0.45, exclude=pole)
    rel = np.abs((ev.value(pts) - oracle.value(pts)) / oracle.value(pts))
    assert np.max(rel) < 1e-6


def test_sphere_kernel_is_l_harmonic():
    d = np.linspace(0.3, 2.8, 12)
    h = 1e-4
    u = sphere_kernel(d)
    upp = (sphere_kernel(d + h) - 2 * u + sphere_kernel(d - h)) / h ** 2
    up = (sphere_kernel(d + h) - sphere_kernel(d - h)) / (2 * h)
    L = -6.0 * (upp + 3.0 * np.cos(d) / np.sin(d) * up) + 12.0 * u
    scale = np.abs(6.0 * upp) + np.abs(12.0 * u)
    assert np.max(np.abs(L) / scale) < 1e-5
    assert_allclose(sphere_kernel_slope(d), up, rtol=1e-6)


def test_chart_for_field_picks_the_matching_chart():
    assert chart_for_field(FlatField(), 1.0).kind == "flat"
    assert chart_for_field(WarpedRadialField(flat_profile()), 1.0).kind == "flat"
    for delta in (0.025, 0.5, 1.0):
        assert chart_for_field(ROUND, delta).kind == "round"
    with pytest.raises(ValueError):
        chart_for_field(WarpedRadialField(polynomial_profile(1, 1)), 0.5)


def test_green_problem_measures_the_coupling_once(monkeypatch):
    calls = []
    real = RadialChart.mode_coupling_defect

    def counted(self, *args, **kwargs):
        calls.append(self.kind)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RadialChart, "mode_coupling_defect", counted)
    GreenProblem(ROUND, np.array([0.1, 0.0, 0.0, 0.0]), 0.5)
    assert sorted(calls) == ["flat", "round"]


def test_mode_sum_matches_per_mode_splines():
    # one vector-valued spline and the streamed recurrence give, bit for bit,
    # the sum of per-mode splines against the Chebyshev table
    from scipy.interpolate import CubicSpline
    from cyl.green import ZonalModeSum, _default_mesh, _solve_modes
    chart = RadialChart.round()
    lmax = 12
    bmodes = zonal_project(lambda g: sphere_kernel(chart.dist(
        np.full_like(g, 0.5), 0.1, np.cos(g))), lmax)
    mesh = _default_mesh(0.5, 0.1, 120)
    modes = _solve_modes(chart, bmodes, mesh)
    rng = np.random.default_rng(6)
    r = rng.uniform(0.0, 0.5, 300)
    c = rng.uniform(-1.0, 1.0, 300)
    U = chebyshev_u(lmax, c)
    expect = np.zeros(len(r))
    for l, u in enumerate(modes):
        expect += CubicSpline(mesh, u, extrapolate=True)(r) * U[l]
    got = ZonalModeSum(np.array([1.0, 0.0, 0.0, 0.0]), mesh, modes).at(r, c)
    assert np.array_equal(got, expect)


def test_round_geodesic_spheres_have_their_radius():
    from cyl.geometry.football import chart_to_sphere
    from cyl.green import _exp_sphere
    rng = np.random.default_rng(9)
    dirs = rng.normal(size=(64, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h = 1e-6
    for pole in (np.array([0.1, 0.0, 0.0, 0.0]), np.array([0.05, -0.2, 0.1, 0.0])):
        p = chart_to_sphere(pole)
        # the tangent lift by a central difference of chart_to_sphere
        fd = (chart_to_sphere(pole + h * dirs)
              - chart_to_sphere(pole - h * dirs)) / (2.0 * h)
        fd /= np.linalg.norm(fd, axis=1, keepdims=True)
        sphere = _exp_sphere(RadialChart.round(), pole, dirs)
        for s in (1e-3, 0.02, 0.3):
            q = chart_to_sphere(sphere(s))
            # chordal form: well conditioned at small s
            dist = 2.0 * np.arcsin(0.5 * np.linalg.norm(q - p, axis=1))
            assert np.max(np.abs(dist - s)) < 1e-12
        # q = cos(s) p + sin(s) lift on the great circle through the pole
        q = chart_to_sphere(sphere(0.3))
        lift = (q - math.cos(0.3) * p) / math.sin(0.3)
        assert np.max(np.abs(lift - fd)) < 1e-9


def test_round_mass_extraction_lifts_directions_at_once(monkeypatch):
    # the S^4 lift of the sample directions is one chart_to_sphere call for
    # all directions and radii, not one per direction
    import cyl.green as green
    pole = np.array([0.1, 0.0, 0.0, 0.0])
    oracle = round_ball_green(0.5, pole)  # evaluates without chart_to_sphere
    calls = []
    real = green.chart_to_sphere

    def counted(z):
        calls.append(np.shape(z))
        return real(z)

    monkeypatch.setattr(green, "chart_to_sphere", counted)
    real_dirs = green._sym_directions
    counts = {}
    for n in (2, 6):
        monkeypatch.setattr(green, "_sym_directions", lambda n=n: real_dirs(n))
        calls.clear()
        extract_mass(oracle, pole, chart=RadialChart.round())
        counts[n] = len(calls)
    assert 1 <= counts[2] == counts[6] <= 2


def test_green_relations_on_football():
    # global kernel = Dirichlet pair + harmonic extension of the global trace
    delta = 0.5
    t = 0.1
    pole = np.array([t, 0.0, 0.0, 0.0])
    glob = football_global_green(pole)
    gp = solve_dirichlet_green(GreenProblem(ROUND, pole, delta))
    gm = solve_dirichlet_green(GreenProblem(ROUND, -pole, delta))

    def datum(gamma):
        pts = np.stack([delta * np.cos(gamma), delta * np.sin(gamma),
                        np.zeros_like(gamma), np.zeros_like(gamma)], axis=1)
        return glob.value(pts)

    H = solve_harmonic_extension(ROUND, delta, datum)
    assembled = AssembledGreen(gp, gm, H)
    rng = np.random.default_rng(5)
    pts = _sample_points(rng, 40, 0.45, exclude=pole)
    pts = pts[np.linalg.norm(pts + pole, axis=1) > 0.05]
    rel = np.abs((assembled.value(pts) - glob.value(pts)) / glob.value(pts))
    assert np.max(rel) < 1e-5
    # assembled function is equivariant
    assert assembled.symmetry_defect(pts) < 1e-7
    # harmonic extension of an even datum is even
    hv = H.value(pts)
    hm = H.value(-pts)
    assert np.max(np.abs(hv - hm)) < 1e-9


def test_solver_equivariance():
    pole = np.array([0.09, 0.0, 0.0, 0.0])
    gp = solve_dirichlet_green(GreenProblem(ROUND, pole, 0.5))
    gm = solve_dirichlet_green(GreenProblem(ROUND, -pole, 0.5))
    rng = np.random.default_rng(8)
    pts = _sample_points(rng, 25, 0.45, exclude=pole)
    assert np.max(np.abs(gp.value(pts) - gm.value(-pts))) < 1e-8


def test_positivity_inside_ball():
    pole = np.array([0.1, 0.05, 0.0, 0.0])
    ev = solve_dirichlet_green(GreenProblem(FlatField(), pole, 1.0))
    rng = np.random.default_rng(11)
    pts = _sample_points(rng, 200, 0.97, exclude=pole, min_dist=0.02)
    assert np.all(ev.value(pts) > 0.0)


def test_weak_form_delta_normalization():
    # int G L(psi) dmu = 24 pi^2 psi(pole) for random smooth zonal psi
    delta = 1.0
    pole = np.array([0.12, 0.0, 0.0, 0.0])
    ev = solve_dirichlet_green(GreenProblem(FlatField(), pole, delta))
    rng = np.random.default_rng(17)
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10,
                          grading=(((0.12, 0.0), 0.05),))
    for _ in range(30):
        amps = rng.normal(size=3)
        ls = rng.integers(0, 4, size=3)
        r0 = rng.uniform(0.5, 0.8)

        def bump(r):
            # C^2 radial profile supported in [0, r0]
            x = np.clip(r / r0, 0.0, 1.0)
            return (1.0 - x ** 2) ** 3

        def bump2(r):
            x = np.clip(r / r0, 0.0, 1.0)
            d1 = -6.0 * x * (1.0 - x ** 2) ** 2 / r0
            return d1

        def bump3(r):
            x = np.clip(r / r0, 0.0, 1.0)
            return (-6.0 * (1.0 - x ** 2) ** 2 + 24.0 * x ** 2 * (1.0 - x ** 2)) / r0 ** 2

        def psi(r, gamma):
            U = chebyshev_u(4, np.cos(gamma))
            out = 0.0
            for a, l in zip(amps, ls):
                out = out + a * bump(r) * U[l]
            return out

        def Lpsi(r, gamma):
            U = chebyshev_u(4, np.cos(gamma))
            out = 0.0
            for a, l in zip(amps, ls):
                lap = bump3(r) + 3.0 / r * bump2(r) - l * (l + 2) * bump(r) / r ** 2
                out = out + a * (-6.0) * lap * U[l]
            return out

        def integrand(r, gamma):
            pts = np.stack([r * np.cos(gamma), r * np.sin(gamma),
                            np.zeros_like(r), np.zeros_like(r)], axis=-1)
            return ev.value(pts.reshape(-1, 4)).reshape(r.shape) * Lpsi(r, gamma)

        res = integrate_axisym_sphere(integrand, spec, theta_domain=(1e-9, delta),
                                      radial_weight=lambda r: r ** 3)
        target = KAPPA * psi(np.linalg.norm(pole), 0.0)
        assert abs(res.value - target) < 5e-4 * (1.0 + abs(target))


def test_mode_truncation_convergence():
    pole = np.array([0.1, 0.0, 0.0, 0.0])
    masses = []
    for lmax in (16, 32):
        ev = solve_dirichlet_green(GreenProblem(ROUND, pole, 0.5, lmax=lmax))
        f_full, fr = cnc_radial_factor(ev.chart, pole)
        exp = extract_mass(conformal_wrap(ev, f_full), pole,
                           chart=ev.chart, conformal_fr=fr)
        masses.append(exp)
    assert abs(masses[0].A_q - masses[1].A_q) <= \
        masses[0].error + masses[1].error + 1e-6


def test_flat_cone_mass_sweep():
    rows = mass_divergence_sweep("flat-cone", [0.05, 0.03, 0.02], 1.0)
    prods = [r["product"] for r in rows]
    # analytic oracle of the assembled Dirichlet mass
    for r, t in zip(rows, (0.05, 0.03, 0.02)):
        aq = 1.0 / (4 * t * t) - 1.0 / (1 - t * t) ** 2 - 1.0 / (1 + t * t) ** 2
        assert r["A_q"] == pytest.approx(aq, rel=1e-4)
    assert 0.95 <= prods[-1] <= 1.05
    # approaches 1 monotonically in the recorded run
    assert prods[0] < prods[1] < prods[2] < 1.0


def test_football_mass_sweep():
    rows = mass_divergence_sweep("football", [0.04, 0.02], 0.8)
    assert 0.95 <= rows[-1]["product"] <= 1.05
    assert abs(rows[-1]["product"] - 1.0) < abs(rows[0]["product"] - 1.0)


def test_mass_boundary_effect_bounded():
    # delta enters only through the O(1) boundary correction
    out = {}
    for delta in (0.8, 0.5):
        rows = mass_divergence_sweep("flat-cone", [0.02, 0.01], delta)
        out[delta] = [r["A_q"] for r in rows]
    diffs = [abs(a - b) for a, b in zip(out[0.8], out[0.5])]
    assert diffs[1] < 10.0  # stays O(1) while A_q itself grows like 1/(4t^2)
    assert abs(diffs[1] - diffs[0]) < 1.0


def test_parametrix_residual_and_law():
    flat = parametrix_residual(RadialChart.flat(), 0.2)
    assert flat["sup"] == 0.0
    nocnc = parametrix_residual(RadialChart.round(), 0.2, with_cnc=False)
    # without the conformal change the curvature term alone is ~ 12/r^2,
    # unbounded in L^4 near the pole ...
    assert nocnc["sup_curvature_term_no_cnc"] > 1e6
    # ... though for the Einstein round metric the two terms cancel pointwise
    assert nocnc["sup"] < 5.0
    sweep = parametrix_sweep(RadialChart.round(), [0.1, 0.2, 0.4])
    assert -2.3 <= sweep["exponent"] <= -1.7


def test_problem_validation():
    with pytest.raises(ValueError):
        GreenProblem(FlatField(), np.array([0.5, 0, 0, 0]), 1.0)  # pole too far
    with pytest.raises(ValueError):
        GreenProblem(ROUND, np.zeros(4), 0.5)  # pole at the cone tip
    bad = ConformalField(FlatField(), lambda x: 0.3 * x[0])
    with pytest.raises(ValueError):
        GreenProblem(bad, np.array([0.1, 0, 0, 0]), 1.0)


def test_matching_constant_meets_the_continuity_condition():
    pole = np.array([0.1, 0.0, 0.0, 0.0])
    ev = solve_dirichlet_green(GreenProblem(FlatField(), pole, 1.0))
    exp = extract_mass(ev, pole)
    # the matching constant satisfies the continuity condition
    nu = matching_constant(1e-3, 5e-3, exp.A_q)
    k = sobolev_constants()
    lhs = (k.c4 / 1e-3) / (1.0 + (5e-3) ** 2 / (1e-3) ** 2)
    rhs = (1.0 / (5e-3) ** 2 + exp.A_q) / nu
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _dense_tridiagonal(ab):
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


def test_solve_tridiagonal_matches_dense_solve():
    from cyl.green import _solve_tridiagonal
    rng = np.random.default_rng(11)
    n = 40
    ab = rng.uniform(-1.0, 1.0, (3, n))
    ab[1] = 3.0 + rng.uniform(0.0, 1.0, n)  # strictly diagonally dominant
    rhs = rng.normal(size=n)
    x = _solve_tridiagonal(ab, rhs)
    assert_allclose(x, np.linalg.solve(_dense_tridiagonal(ab), rhs),
                    rtol=0.0, atol=1e-12)


def test_solve_tridiagonal_errors():
    from cyl.green import _solve_tridiagonal
    # rows 0 and 1 are equal
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    rhs = np.ones(3)
    assert np.linalg.matrix_rank(_dense_tridiagonal(ab)) < 3
    with pytest.raises(np.linalg.LinAlgError):
        _solve_tridiagonal(ab, rhs)
    good = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
    assert np.all(np.isfinite(_solve_tridiagonal(good, rhs)))
    nan_ab = good.copy()
    nan_ab[1, 1] = np.nan
    nan_rhs = rhs.copy()
    nan_rhs[2] = np.nan
    for bad_ab, bad_rhs in ((nan_ab, rhs), (good, nan_rhs)):
        with pytest.raises(ValueError):
            _solve_tridiagonal(bad_ab, bad_rhs)
