"""The benchmark's outside-in tracer against the library: one engine span per
engine call, integrand points that add up to the reported evaluations, and
an uninstall that puts every patched name back."""

import math
import sys
from pathlib import Path

import numpy as np

import cyl.interaction as interaction
import cyl.quadrature as quadrature
from cyl.quadrature import QuadratureSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)


def _names():
    """Every attribute of the loaded cyl modules and of the patched classes,
    by identity."""
    from cyl.geometry.cnc import CutoffProfile
    from cyl.green import GreenEvaluator
    out = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "cyl":
            out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (quadrature.FrozenMesh2D, CutoffProfile, GreenEvaluator):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_spans_each_engine_call_once_and_uninstalls():
    before = _names()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        assert quadrature.integrate_biradial is not before[
            ("cyl.quadrature", "integrate_biradial")]
        results = [
            interaction.interaction_integral("U3V", 1.0, 1.5, SPEC),
            quadrature.integrate_axisym_sphere(
                lambda th, ps: np.ones_like(th), SPEC, (0.0, math.pi),
                lambda th: np.sin(th) ** 3),
        ]
    finally:
        inst.uninstall()
    after = _names()
    # modules first loaded by the calls were never patched
    assert all(after[k] is before[k] for k in before)

    spans = tracer.spans
    engines = [i for i, s in enumerate(spans)
               if s[0].startswith("quadrature.integrate_")]
    # exactly one engine span per call: no public engine calls another
    assert [spans[i][0] for i in engines] == [
        "quadrature.integrate_biradial", "quadrature.integrate_axisym_sphere"]

    def under(i, root):
        while i >= 0:
            if i == root:
                return True
            i = spans[i][3]
        return False

    for root, res in zip(engines, results):
        assert res.converged
        points = sum(s[5]["points"] for i, s in enumerate(spans)
                     if s[0] == "quadrature.integrand" and under(i, root))
        assert points == res.evaluations


def test_a_traced_curves_sweep_is_one_engine_span_that_counts_every_point():
    grid = [0.3, 2.0, 40.0]
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        cur = interaction.curves(1.0, grid, SPEC)
    finally:
        inst.uninstall()
    spans = tracer.spans
    engines = [s for s in spans if s[0].startswith("quadrature.")
               and s[0] != "quadrature.integrand"]
    assert [s[0] for s in engines] == ["quadrature.integrate_biradial"]
    assert engines[0][5]["converged"] and cur.converged.all()
    # the points of every integrand call, against the evaluations the
    # sweep's integrals report, one per grid point
    res = interaction._sweep(interaction._POINT, 1.0, grid, SPEC)
    assert len(res) == len(grid)
    points = sum(s[5]["points"] for s in spans
                 if s[0] == "quadrature.integrand")
    assert points == sum(r.evaluations for r in res) > 0


def test_a_traced_monotonicity_grid_builds_its_frozen_meshes_in_one_span():
    # the grid's frozen meshes are one sweep: one build, then the shifted
    # evaluations of each mesh
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        rep = interaction.verify_monotonicity(1.0, [0.5, 1.0, 2.0], SPEC)
    finally:
        inst.uninstall()
    names = [s[0] for s in tracer.spans]
    assert rep.converged and rep.first_violation == -1
    assert names.count("quadrature.build_frozen_mesh") == 1
    assert names.count("quadrature.FrozenMesh2D.evaluate") == 3 * 4


def test_a_traced_path_spans_one_evaluation_per_leg():
    # the legs perfbench's minmax.*_s metrics read: one evaluate_quotient
    # span per leg, its variant recorded, each over the quotient it calls
    import cyl.minmax as minmax
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        prof = minmax.build_path(minmax.PathConfig(), [0.5, 1.5, 2.25])
    finally:
        inst.uninstall()
    spans = tracer.spans
    evals = [i for i, s in enumerate(spans)
             if s[0] == "minmax.evaluate_quotient"]
    assert [spans[i][5]["variant"] for i in evals] == prof.legs == [
        "DOUBLE", "INTERP", "GLUED"]
    inner = [(s[0], spans[s[3]][5]["variant"]) for s in spans
             if s[0] in ("minmax.quotient_double", "minmax.quotient_interp")]
    assert inner == [("minmax.quotient_double", "DOUBLE"),
                     ("minmax.quotient_interp", "INTERP"),
                     ("minmax.quotient_interp", "GLUED")]
    metrics = tracing.pass_metrics(spans, None)
    assert metrics["minmax.evaluations"] == 3
    assert all(metrics[f"minmax.{leg}_s"] > 0.0
               for leg in ("double", "interp", "glued"))
