"""The acceptance gate: every criterion at its pinned tolerance, one test
per criterion, each printing its PASS/FAIL line."""

import pytest

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


def test_criterion_11_expansion_constant(cfg):
    _run(acceptance.check_expansion_fit, cfg)


def test_criterion_12_energy_levels(cfg):
    _run(acceptance.check_energy_levels, cfg)
