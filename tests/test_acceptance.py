"""The acceptance gate: every criterion at its pinned tolerance, one test
per criterion, each printing its PASS/FAIL line."""

from dataclasses import replace

import pytest

import cyl.interaction as interaction
import cyl.minmax as minmax
from cyl import acceptance
from cyl.config import RunConfig
from cyl.constants import sobolev_constants


@pytest.fixture(scope="module")
def cfg():
    return RunConfig()


def _run(check, cfg):
    res = check(cfg)
    print()
    print(res.line())
    assert res.passed, res.detail
    return res


def test_criterion_01_constants(cfg):
    res = _run(acceptance.check_constants, cfg)
    assert res.seconds < 1.0


def test_criterion_02_bracket(cfg):
    res = _run(acceptance.check_bracket, cfg)
    assert res.seconds < 120.0


def test_criterion_03_slopes(cfg):
    res = _run(acceptance.check_slopes, cfg)
    assert res.seconds < 120.0


def test_criterion_04_b_prime_identity(cfg):
    _run(acceptance.check_b_prime, cfg)


def test_criterion_05_monotonicity(cfg):
    _run(acceptance.check_monotonicity, cfg)


def test_criterion_06_cnc(cfg):
    res = _run(acceptance.check_cnc, cfg)
    assert res.seconds < 60.0


def test_criterion_07_gauge(cfg):
    _run(acceptance.check_gauge, cfg)


def test_criterion_08_green_masses(cfg):
    res = _run(acceptance.check_green_masses, cfg)
    assert res.seconds < 600.0


def test_criterion_09_parametrix(cfg):
    _run(acceptance.check_parametrix, cfg)


def test_criterion_10_path(cfg):
    res = _run(acceptance.check_path, cfg)
    assert res.seconds < 1800.0


@pytest.mark.parametrize("flag_lam", [None, 0.5])
def test_path_check_fails_on_an_unconverged_point(monkeypatch, flag_lam):
    # every point sits safely below 6*S4; only the convergence flag of the
    # INTERP point at lam = flag_lam (mu = 1.5 and its mirror 3.5) is off
    ys = sobolev_constants().Ys

    def flagged(config, desc, spec=None):
        return ys, 1e-9, not (desc.variant == "INTERP" and desc.lam == flag_lam)

    monkeypatch.setattr(minmax, "evaluate_quotient", flagged)
    res = acceptance.check_path(RunConfig(mu_points=11))
    if flag_lam is None:
        assert res.passed and res.detail.endswith("0 unconverged")
    else:
        assert not res.passed and res.detail.endswith("2 unconverged")


def test_slope_check_fails_on_an_unconverged_integral(monkeypatch):
    # the real integrals, with the contract flag of the U3V one at t = 100
    # turned off
    real = interaction.interaction_integral

    def flagged(kind, epsilon, t, spec):
        res = real(kind, epsilon, t, spec)
        return replace(res, converged=not (kind == "U3V" and t == 100.0))

    monkeypatch.setattr(interaction, "interaction_integral", flagged)
    res = acceptance.check_slopes(RunConfig())
    assert not res.passed and res.detail.endswith("1 of 3 fits unconverged")


def test_monotonicity_check_fails_on_an_unconverged_integral(monkeypatch):
    # the real integrals, with the contract flag of the a', c' mesh at t = 2
    # turned off
    real = interaction.derivative_quadratures

    def flagged(epsilon, t, spec):
        return tuple(replace(res, converged=t != 2.0)
                     for res in real(epsilon, t, spec))

    monkeypatch.setattr(interaction, "derivative_quadratures", flagged)
    res = acceptance.check_monotonicity(RunConfig())
    assert not res.passed and res.detail.endswith("integrals unconverged")


def test_criterion_11_expansion_constant(cfg):
    _run(acceptance.check_expansion_fit, cfg)


@pytest.mark.parametrize("flag_eps", [None, 3e-5])
def test_fit_check_fails_on_an_unconverged_point(monkeypatch, flag_eps):
    # exact model values 6*S4 - A eps^{2(1 - alpha)} on both legs fit A and
    # the exponent exactly; only the convergence flag of the INTERP point at
    # eps = flag_eps is off
    k = sobolev_constants()
    cfg = RunConfig()

    def model(config, desc, spec):
        q = 6.0 * k.S4 - k.A * desc.epsilon ** (2.0 * (1.0 - cfg.alpha))
        return q, 1e-9, not (desc.variant == "INTERP"
                             and desc.epsilon == flag_eps)

    monkeypatch.setattr(minmax, "evaluate_quotient", model)
    res = acceptance.check_expansion_fit(cfg)
    n = len(cfg.epsilon_list_double) + len(cfg.epsilon_list)
    if flag_eps is None:
        assert res.passed
        assert res.detail.endswith(f"0 of {n} fit points unconverged")
    else:
        assert not res.passed
        assert res.detail.endswith(f"1 of {n} fit points unconverged")


def test_criterion_12_energy_levels(cfg):
    _run(acceptance.check_energy_levels, cfg)
