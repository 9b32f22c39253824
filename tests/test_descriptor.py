"""The path's legs, one type each: what each can be built with, and which
leg and spec the path picks at each mu."""

import pytest

import cyl.minmax as minmax
from cyl.minmax import DoubleLeg, GluedLeg, InterpLeg, PathConfig

LEGS = {"DOUBLE": DoubleLeg, "INTERP": InterpLeg, "GLUED": GluedLeg}


def test_descriptor_imports_by_name_and_builds():
    # every leg carries variant, epsilon, t, tau and lam; what is no
    # argument of a leg is its constant
    for leg, fields in (
            (GluedLeg(0.05, 0.4, 0.1), ("GLUED", 0.05, 0.4, 0.1, 1.0)),
            (InterpLeg(0.05, 0.4, 0.1, 0.5), ("INTERP", 0.05, 0.4, 0.1, 0.5)),
            (DoubleLeg(0.05, 0.4), ("DOUBLE", 0.05, 0.4, 0.0, 0.0))):
        assert (leg.variant, leg.epsilon, leg.t, leg.tau, leg.lam) == fields


@pytest.mark.parametrize("variant, kwargs", [
    ("GLUED", dict(t=0.4, tau=0.1, lam=0.0)),
    ("GLUED", dict(t=0.4, tau=0.1, lam=1.0)),
    ("INTERP", dict(t=0.4, tau=0.1, lam=1.5)),
    ("INTERP", dict(t=0.4, tau=0.1, lam=-0.25)),
    ("INTERP", dict(t=0.4, tau=0.1, lam=float("nan"))),
    ("DOUBLE", dict(t=0.4, tau=0.1)),
    ("DOUBLE", dict(t=0.4, lam=0.5)),
])
def test_descriptor_of_another_competitor_cannot_be_built(variant, kwargs):
    # GLUED is INTERP at lam = 1 and takes no lam, DOUBLE has no glue and
    # takes no tau or lam, and INTERP takes lam in [0, 1] only
    error = ValueError if variant == "INTERP" else TypeError
    with pytest.raises(error, match="lam|tau"):
        LEGS[variant](0.05, **kwargs)


def test_the_path_picks_each_leg_and_its_spec(monkeypatch):
    # mu = 2 ends the INTERP leg at lam = 1, at the bubble legs' loose spec;
    # only the glued leg takes the path's own, and mu = 3 mirrors mu = 2
    cfg = PathConfig()
    seen = []

    def record(config, leg, spec):
        seen.append((leg, spec))
        return 1.0, 0.0, True

    monkeypatch.setattr(minmax, "evaluate_quotient", record)
    prof = minmax.build_path(cfg, [0.5, 2.0, 2.25, 3.0])
    assert prof.legs == ["DOUBLE", "INTERP", "GLUED", "INTERP"]
    eps = cfg.epsilon
    te, tau, t = eps ** cfg.alpha, eps ** cfg.omega, cfg.t_of_mu(2.25)
    loose = cfg.spec().scaled(30.0)
    assert seen == [(DoubleLeg(eps, 0.5 * te), loose),
                    (InterpLeg(eps, te, tau, 1.0), loose),
                    (GluedLeg(eps, t, cfg.tau_of_t(t)), cfg.spec())]
