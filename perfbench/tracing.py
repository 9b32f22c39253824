"""Outside-in tracing of the cyl layers.

Nothing under ``src/`` knows about this module.  ``install`` replaces public
callables of the library with wrappers that record one span per call, and
wraps every integrand callable handed to a quadrature engine, so integrand
time and point counts are measured where the work happens.  ``uninstall``
restores the originals, so an untraced pass runs the unmodified library.

A span is ``[name, start, end, parent, pass_id, attrs]``.  Spans are kept in
memory and written out once, after the run (``write_jsonl``).  The layer of a
span is the first component of its name.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []

    def begin(self, name, attrs=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.pass_id, attrs])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][2] = _now()
        self._stack.pop()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, pid, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "pass": pid, "attrs": attrs or {}}) + "\n")


def _points(x):
    """Evaluation points in one call: rows of an (m, 4) point array, else
    the element count of the coordinate array."""
    shape = getattr(x, "shape", ())
    if len(shape) == 2 and shape[1] == 4:
        return int(shape[0])
    return int(getattr(x, "size", 1))


def _spanned(tracer, name, fn, attrs_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name, attrs_of(args) if attrs_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)

    return wrapper


def _integrand(tracer, F):
    def wrapped(x, *rest):
        sid = tracer.begin("quadrature.integrand", {"points": _points(x)})
        try:
            return F(x, *rest)
        finally:
            tracer.end(sid)

    return wrapped


def _engine(tracer, name, fn, integrand_pos):
    """Span around an engine call; the integrand argument is wrapped too."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        args = list(args)
        args[integrand_pos] = _integrand(tracer, args[integrand_pos])
        attrs = {}
        sid = tracer.begin(name, attrs)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        # build_frozen_mesh returns a mesh and raises when unconverged
        attrs["converged"] = bool(getattr(res, "converged", True))
        return res

    return wrapper


def _descriptor_attrs(args):
    """Variant and a rounding-tolerant key of the evaluated descriptor:
    mirror legs reach the same descriptor up to the last bits of t."""
    desc, spec = args[1], args[2] if len(args) > 2 else None

    def r(x):
        return float(f"{x:.12g}")

    key = (desc.variant, r(desc.epsilon), r(desc.t), r(desc.tau), r(desc.lam),
           None if spec is None else (spec.rel_tol, spec.abs_tol))
    return {"variant": desc.variant, "key": repr(key)}


def _points_attr(args):
    return {"points": _points(args[1])}


def _grid_attr(args):
    return {"n": len(args[1])}


class Installation:
    """The set of patches; ``uninstall`` puts every original back."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace_function(self, original, new):
        """Replace ``original`` in every loaded cyl module that imported it."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "cyl":
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.replace(mod, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def install(tracer) -> Installation:
    import cyl.green as green
    import cyl.interaction as interaction
    import cyl.minmax as minmax
    import cyl.quadrature as quadrature
    from cyl.geometry.cnc import CutoffProfile

    inst = Installation()
    for fname in ("integrate_radial", "integrate_biradial",
                  "integrate_axisym_sphere", "integrate_ball4",
                  "integrate_sphere3", "integrate_rect2d",
                  "build_frozen_mesh"):
        fn = getattr(quadrature, fname)
        inst.replace_function(fn, _engine(tracer, f"quadrature.{fname}", fn, 0))
    inst.replace(quadrature.FrozenMesh2D, "evaluate",
                 _engine(tracer, "quadrature.FrozenMesh2D.evaluate",
                         quadrature.FrozenMesh2D.evaluate, 1))

    spanned = [
        (minmax, "build_path", None),
        (minmax, "evaluate_quotient", _descriptor_attrs),
        (minmax, "quotient_double", None),
        (minmax, "quotient_interp", None),
        (minmax, "glued_data", None),
        (interaction, "curves", _grid_attr),
        (interaction, "interaction_integral", None),
        (interaction, "verify_b_prime_identity", None),
        (interaction, "asymptotic_slope", None),
        (green, "mass_divergence_sweep", None),
        (green, "solve_dirichlet_green", None),
        (green, "extract_mass", None),
    ]
    for mod, fname, attrs_of in spanned:
        fn = getattr(mod, fname)
        layer = mod.__name__.split(".")[1]
        inst.replace_function(fn, _spanned(tracer, f"{layer}.{fname}", fn,
                                           attrs_of))
    for meth in ("value", "deriv", "deriv2"):
        inst.replace(CutoffProfile, meth,
                     _spanned(tracer, f"geometry.CutoffProfile.{meth}",
                              getattr(CutoffProfile, meth), _points_attr))
    inst.replace(green.GreenEvaluator, "value",
                 _spanned(tracer, "green.GreenEvaluator.value",
                          green.GreenEvaluator.value, _points_attr))
    return inst


# ----------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ----------------------------------------------------------------------------

_ENGINE_PREFIX = "quadrature.integrate_"
_FROZEN = "quadrature.FrozenMesh2D.evaluate"
_BUILD = "quadrature.build_frozen_mesh"
_CUTOFF = "geometry.CutoffProfile."


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


def pass_metrics(spans, pass_id, scale=1.0) -> dict:
    """Per-layer metrics of one traced pass (see perfbench/README.md).

    Seconds are multiplied by ``scale``, the pass's speed normalisation
    factor, so they compare with ``wall_s``."""
    ids = [i for i, s in enumerate(spans) if s[4] == pass_id]
    dur = {i: spans[i][2] - spans[i][1] for i in ids}
    child = dict.fromkeys(ids, 0.0)
    for i in ids:
        p = spans[i][3]
        if p in child:
            child[p] += dur[i]

    def name(i):
        return spans[i][0]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def is_engine(i):
        n = name(i)
        return n.startswith(_ENGINE_PREFIX) or n in (_FROZEN, _BUILD)

    def caller_layer(i):
        """Layer of the first non-quadrature span above ``i``."""
        for a in ancestors(i):
            layer = name(a).split(".")[0]
            if layer != "quadrature":
                return layer
        return "bench"

    engines = [i for i in ids if is_engine(i)]
    outer = [i for i in engines if name(i) != _FROZEN
             and not any(is_engine(a) for a in ancestors(i))]
    unconverged = sum(1 for i in outer if not spans[i][5]["converged"])
    integrands = [i for i in ids if name(i) == "quadrature.integrand"]
    points = sum(spans[i][5]["points"] for i in integrands)

    evals = [i for i in ids if name(i) == "minmax.evaluate_quotient"]
    by_variant = {}
    for i in evals:
        by_variant.setdefault(spans[i][5]["variant"], []).append(dur[i])
    seen, repeats = set(), 0
    for i in evals:
        key = spans[i][5]["key"]
        repeats += key in seen
        seen.add(key)
    interp = {i for i in evals if spans[i][5]["variant"] == "INTERP"}
    interp_points = sum(spans[i][5]["points"] for i in integrands
                        if interp.intersection(ancestors(i)))

    def integrand_s(layer):
        return sum(dur[i] for i in integrands if caller_layer(i) == layer)

    cutoffs = [i for i in ids if name(i).startswith(_CUTOFF)]
    cutoff_points = sum(spans[i][5]["points"] for i in cutoffs)

    curve_calls = [i for i in ids if name(i) == "interaction.curves"]
    curve_points = sum(spans[i][5]["n"] for i in curve_calls)

    values = [i for i in ids if name(i) == "green.GreenEvaluator.value"]
    value_points = sum(spans[i][5]["points"] for i in values)
    value_s = sum(dur[i] for i in values)

    def durations(n):
        return [dur[i] for i in ids if name(i) == n]

    out = {
        "quadrature.integrals": len(outer),
        "quadrature.points": points,
        "quadrature.unconverged": unconverged,
        "quadrature.converged_ratio": _ratio(len(outer) - unconverged, len(outer)),
        "quadrature.engine_self_s": sum(dur[i] - child[i] for i in engines),
        "quadrature.frozen_evals": len(durations(_FROZEN)),
        "quadrature.frozen_s": sum(durations(_FROZEN)),
        "quadrature.max_batch_points": max(
            (spans[i][5]["points"] for i in integrands), default=0),
        "minmax.double_s": _median(by_variant.get("DOUBLE", [])),
        "minmax.interp_s": _median(by_variant.get("INTERP", [])),
        "minmax.glued_s": _median(by_variant.get("GLUED", [])),
        "minmax.interp_points": interp_points,
        "minmax.integrand_s": integrand_s("minmax"),
        "minmax.evaluations": len(evals),
        "minmax.repeat_ratio": _ratio(repeats, len(evals)),
        "geometry.cutoff_calls": len(cutoffs),
        "geometry.cutoff_points": cutoff_points,
        "geometry.cutoff_s": sum(dur[i] for i in cutoffs),
        "geometry.cutoff_points_per_quad_point": _ratio(cutoff_points, points),
        "interaction.curve_point_s": _ratio(
            sum(dur[i] for i in curve_calls), curve_points),
        "interaction.bprime_s": _median(
            durations("interaction.verify_b_prime_identity")),
        "interaction.mesh_build_s": sum(
            dur[i] for i in ids
            if name(i) == _BUILD and caller_layer(i) == "interaction"),
        "interaction.integrand_s": integrand_s("interaction"),
        "green.solves": len(durations("green.solve_dirichlet_green")),
        "green.solve_s": sum(durations("green.solve_dirichlet_green")),
        "green.mass_s": sum(durations("green.extract_mass")),
        "green.value_calls": len(values),
        "green.value_points": value_points,
        "green.value_s": value_s,
        "green.us_per_value_point": 1e6 * _ratio(value_s, value_points),
        "trace.spans": len(ids),
    }
    for key in out:
        if key.endswith("_s") or key == "green.us_per_value_point":
            out[key] *= scale
    return out


# metrics that count work; they repeat exactly for a seed and are reported
# from the first traced pass, while seconds are medians over traced passes
COUNT_METRICS = {
    "quadrature.integrals", "quadrature.points", "quadrature.unconverged",
    "quadrature.converged_ratio", "quadrature.frozen_evals",
    "quadrature.max_batch_points", "minmax.interp_points",
    "minmax.evaluations", "minmax.repeat_ratio", "geometry.cutoff_calls",
    "geometry.cutoff_points", "geometry.cutoff_points_per_quad_point",
    "green.solves", "green.value_calls", "green.value_points", "trace.spans",
}


def combine(per_pass: list) -> dict:
    out = {}
    for key in per_pass[0]:
        if key in COUNT_METRICS:
            out[key] = per_pass[0][key]
        else:
            out[key] = _median([m[key] for m in per_pass])
    return out
