"""Adaptive quadrature primitives specialized to the symmetry reductions the
bubble and Green-function integrals admit.

All engines are driven by nested Gauss-Kronrod (G7, K15) rule pairs: the
15-point Kronrod value is the estimate, |K15 - G7| the local error, and
subdivision always attacks the largest local errors first.  An axis with an
infinite end is compactified through ``x = tan(theta)`` in one place,
``_compactify``, for the 1-d and the 2-d engines alike, so no truncation
radius ever has to be tuned and callers grade in their own coordinates.
Integrands concentrated at a known "bubble core" declare it through grading
entries ``(center, scale)``; the engine then seeds the partition with dyadic
annuli down to ``scale/4`` around each center.

Seed reach: every axis, bounded or compactified, ladders the annuli around
a core at c with scale s out to below ``4*(|c| + max(s, 1))``.  Farther out a
bounded axis has no feature to grade and a compactified one is graded by
the ``tan`` map; rungs there only add boxes the adaptive pass evaluates for
nothing.

Per-axis scales: the 2-d seed is the tensor product of the two axes' breaks,
so a scalar scale, which ladders both axes, multiplies the boxes by the
rungs of an axis the feature may not vary along.  A 2-d entry may therefore
give its extent per axis, ``(center, (sx, sy))``; ``math.inf`` on an axis
means the feature is constant along it, and that axis gets only the center
break.  A core on a circle xi = const in polar (xi, eta) is ``(s, inf)``:
its seed stays one box wide in eta, and the adaptive pass splits eta only
where the directional error asks for it.

Engines:

* ``integrate_radial``      -- 1-d integrals on [a, R] or [a, oo), run
  through the 2-d refine loop on boxes of zero height
* ``integrate_rect2d``      -- plain 2-d integrals over a rectangle, whose
  sides may have infinite ends
* ``integrate_biradial``    -- the (zeta, rho) slab reduction of axially
  symmetric R^4 integrals, weight 4*pi*rho^2
* ``integrate_axisym_sphere`` -- the (theta, psi) reduction of axisymmetric
  integrals on radial charts, weight 4*pi*sin(psi)^2 * w(theta), w from the
  caller: sin^3 on the DOUBLE leg's S^4 chart, theta^3 on the flat cone
* ``build_frozen_mesh``     -- bi-radial meshes, frozen for re-evaluation
* ``integrate_ball4``       -- tensor radial x S^3 rule on a Euclidean 4-ball
* ``integrate_sphere3``     -- surface integrals on round 3-spheres

Split axis: the 2-d engine halves a box across the direction that carries
its error.  From the same 15 x 15 grid it forms the directional errors
ex = |K15xK15 - G7(x)K15(y)| and ey = |K15xK15 - K15(x)G7(y)| and splits x
where ex > ey, y where ey > ex, and the longer edge only on an exact tie.
Halving the longer edge instead would slice a box that is wide in a smooth
direction again and again while its error, which lives in the other
direction, does not fall: an integrand peaked in x on [0, 1] x [0, L] would
cost more the longer L is.  DCUHRE chooses its axis from directional error
estimates in the same spirit (Genz & Malik 1980; Berntsen, Espelid & Genz
1991).  The choice costs no integrand call.

Refine loop: one loop, ``_adapt``, serves every adaptive engine.  Each
round it halves the fewest boxes whose errors reach ``_BULK_FRACTION`` of
the total, Doerfler's bulk marking (1996) on QUADPACK's greedy bisection
(Piessens et al. 1983), under a panel rule: ``_panels_2d`` for the 2-d
engines, and for ``integrate_radial`` the K15/G7 rule ``_panels_1d`` on
boxes of zero height, whose error lies all in x, so the loop always halves
x.  A box is at machine resolution, and is never split, when the midpoint of
the edge it would split rounds onto one of that edge's ends; no absolute
width enters, so a singular end is bisected down to the subnormals.  The
loop refines a sweep, integrals of one integrand whose F takes each point's
parameter (tau for a curve point), in lockstep: each round every integral
picks the boxes it would split alone, under its own spec, and one integrand
call per batch evaluates all the picks.  A round costs bookkeeping and an
integrand call, so against 0.5, 0.8 runs green-weakform and curves 15-20%
faster, 0.9 barely more.  Seed-1 perfbench passes 0-2, calls, points:

    fraction          0.5        0.7        0.8        0.9
    curves            344  239 +3.1%  204 +4.5%  177 +9.5%
    green-weakform    364  248 +2.3%  206 +3.2%  168 +6.1%
    path-legs          71   54 +0.5%   49 +2.2%   46 +7.4%

Vector integrands: an integrand of any adaptive engine may return a (k, m)
array for m points, one row per component, instead of m values.  The engine
then adapts one mesh for all k components and returns an ``IntegralResult``
whose value and error are arrays of k; ``res[i]`` is component i.  Each
component keeps its own total and tolerance,
tol_i = ``spec.tolerance_for(total_i)``, and the mesh has converged only
when every component meets its own: its ``converged`` is that AND, shared
by every component.  Boxes are ranked by max_i err_i * (tol_0 / tol_i),
the largest error in units of its own tolerance (the norm of DCUHRE and
``scipy.integrate.quad_vec``), and the split axis by ex and ey weighted the
same way.  Component 0's weight is tol_0 / tol_0, exactly 1, so a scalar
integrand, one component, takes this same path and gets the bits a (1, m)
wrapping of it gets.  Numerator and denominator of one Yamabe quotient share
their geometry, so one call per batch and one mesh serve both; so do the two
Green fluxes of an INTERP quotient, on one 1-d partition.  The split budget
and the batch bound count boxes and points, not components.

Results are deterministic for a fixed (spec, integrand), in a sweep or
alone: boxes are split in a fixed order, and a mesh sums its boxes in that
order, which a frozen mesh keeps.

Node arrays: ``_panels_2d`` hands the working map a batch of n boxes as
x nodes (n, 15, 1), y nodes (n, 1, 15) and sweep parameters (n, 1, 1), not
as 225 n points, so what depends on one axis (``tan``, its Jacobian, the
axisymmetric weights) is formed on 15 nodes.  ``_spread`` repeats node
values onto the flat grid, where products of two axes' factors and the
integrand, which gets flat arrays, are formed: broadcast (n, 15, 1) x
(n, 1, 15) products run 15-element inner loops and are slower.

Batch bound: the 2-d engines and the 3-sphere rule hand an integrand at most
``_MAX_BATCH_POINTS`` = 2^13 points per call.  An integrand's temporaries
grow with its batch and cost more per point once they leave the L2 cache;
one batch through the curve-point working map (tan map, Jacobians, weight
and integrand) and the y rules, best of 21 runs on a 2-vCPU Xeon (2 MB of
L2 per core):

    points per call   900   3 600   8 100   16 200   32 625   65 475
    ns per point       58      27      19       48       49       55

A call has a fixed cost too: a curves pass ran within a few per cent at 2^11
to 2^13, slower above.  ``_panels_2d`` applies the y rules to each slice,
one 15 x 15 box at a time, and the x rules to all the boxes of one integral
at once (a mat-vec rounds its last rows differently), so every sum is the
one a lone unsliced call would give, bit for bit, for elementwise
integrands, and only one slice is held.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "Sweep",
    "QuadratureError",
    "integrate_radial",
    "integrate_biradial",
    "integrate_axisym_sphere",
    "integrate_ball4",
    "integrate_sphere3",
    "integrate_rect2d",
    "FrozenMesh2D",
    "build_frozen_mesh",
    "gauss_legendre",
]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (QUADPACK values).
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss-7 nodes are the odd-indexed Kronrod nodes.
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

# the working coordinate of an infinite end: tan(_TAN_CAP) is about 6.4e13
_TAN_CAP = 0.5 * math.pi * (1.0 - 1e-14)

# the most points one integrand call of the 2-d engine or of the 3-sphere
# rule receives; it bounds the temporaries an integrand allocates
_MAX_BATCH_POINTS = 1 << 13

_BULK_FRACTION = 0.8  # the share of the error a refine round splits


class QuadratureError(RuntimeError):
    """Raised when a caller demands a converged result and did not get one."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, budget and grading hints for one integral.

    ``grading`` holds ``(center, scale)`` pairs; ``center`` is a finite float
    for 1-d engines or a finite 2-vector for the 2-d engines, and ``scale``
    is finite and positive.  The partition is seeded with dyadic breakpoints
    at ``center +- scale/4 * 2^k`` on every axis, out to below
    ``4*(|center| + max(scale, 1))``.  A 2-d entry may instead give
    one scale per axis, ``(center, (sx, sy))``, each positive; ``math.inf``
    says the feature is constant along that axis, which then gets only the
    center break.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 4000
    grading: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf
                and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not (isinstance(self.max_subdivisions, numbers.Integral)
                and self.max_subdivisions >= 1):
            raise ValueError(f"max_subdivisions must be an integer >= 1, "
                             f"got {self.max_subdivisions!r}")
        for center, scale in self.grading:
            # a center that is not finite would seed no break at all
            if not np.isfinite(center).all():
                raise ValueError(f"grading center must be finite, got "
                                 f"{(center, scale)!r}")
            if isinstance(scale, tuple):
                if not (len(scale) == 2 == np.size(center)
                        and all(s > 0.0 for s in scale)):
                    raise ValueError(f"per-axis grading scales need a 2-d "
                                     f"center and two positive values, got "
                                     f"{(center, scale)!r}")
            elif not (math.isfinite(scale) and scale > 0.0):
                raise ValueError(f"grading scale must be finite and positive, "
                                 f"got {scale!r}")

    def with_grading(self, *grading) -> "QuadratureSpec":
        return replace(self, grading=tuple(grading))

    def scaled(self, factor: float) -> "QuadratureSpec":
        return replace(self, rel_tol=self.rel_tol * factor,
                       abs_tol=self.abs_tol * factor)

    def tolerance_for(self, value):
        """max(abs_tol, rel_tol |value|), elementwise for an array."""
        return np.maximum(self.abs_tol, self.rel_tol * np.abs(value))


@dataclass(frozen=True)
class IntegralResult:
    """Value, error, points evaluated and the contract flag of one integral;
    value and error are arrays of k for a k-component integrand."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def expect(self, what: str = "integral") -> "IntegralResult":
        """Return self, raising if the error contract was not met."""
        if not self.converged:
            raise QuadratureError(
                f"{what} did not converge: value={self.value!r} "
                f"error={self.error_estimate!r} after {self.evaluations} evaluations")
        return self

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        return IntegralResult(self.value + other.value,
                              self.error_estimate + other.error_estimate,
                              self.evaluations + other.evaluations,
                              self.converged and other.converged)

    def scaled(self, c: float) -> "IntegralResult":
        """The integral of c times the integrand: value c, error |c|."""
        return IntegralResult(self.value * c, self.error_estimate * abs(c),
                              self.evaluations, self.converged)

    def __getitem__(self, i: int) -> "IntegralResult":
        """Component i of a vector result, with the points and the flag of
        the mesh it shares with the other components."""
        return IntegralResult(float(self.value[i]),
                              float(self.error_estimate[i]),
                              self.evaluations, self.converged)

    def __eq__(self, other) -> bool:
        """Field by field, with value and error compared as arrays, so that
        vector results compare too."""
        if not isinstance(other, IntegralResult):
            return NotImplemented
        return (np.array_equal(self.value, other.value)
                and np.array_equal(self.error_estimate, other.error_estimate)
                and (self.evaluations, self.converged)
                == (other.evaluations, other.converged))


class Sweep(tuple):
    """The results of a sweep, one per parameter; converged when all are."""
    converged = property(lambda self: all(res.converged for res in self))


# ----------------------------------------------------------------------------
# breakpoint seeding
# ----------------------------------------------------------------------------

def _dyadic_breaks(center: float, scale: float, lo: float, hi: float) -> list:
    """Dyadic annulus breakpoints ``center +- scale/4 * 2^k`` with half-width
    below the reach 4*(|center| + max(scale, 1)), clipped to (lo, hi)."""
    breaks = []
    if lo < center < hi:
        breaks.append(center)
    reach = 4.0 * (abs(center) + max(scale, 1.0))
    h = scale / 4.0
    while h < reach:
        for b in (center - h, center + h):
            if lo < b < hi:
                breaks.append(b)
        h *= 2.0
    return breaks


def _seed_breaks(lo, hi, centers_scales, transform=None):
    """Sorted unique breakpoints of [lo, hi], its ends included, with the
    graded seeds of every (center, scale) pair.

    ``transform`` maps original coordinates to the working (compactified)
    variable; seeds are generated in original coordinates.
    """
    pts = [lo, hi]
    for c, s in centers_scales:
        pts.extend(_dyadic_breaks(c, s, lo, hi))
    if transform is not None:
        pts = [transform(p) for p in pts]
    return np.unique(np.asarray(pts, dtype=float))


def _compactify(domains, centers):
    """The one map of infinite axes to working coordinates: ``domains`` has
    one (lo, hi) and ``centers`` one list of (center, scale) pairs per axis.

    An axis with an infinite end is mapped by x = tan(u), its ends capped at
    +-``_TAN_CAP``; a bounded axis keeps its coordinates.  Returns the map
    of an integrand f to f(tan(u), ...) * prod(1 + x^2), which applies the
    Jacobians last, and the seed breaks of each axis; f gets the nodes and
    spreads them.  An axis without lo < hi (reversed, of zero width or NaN)
    raises ValueError.
    """
    for name, (lo, hi) in zip("xy", domains):
        if not lo < hi:
            raise ValueError(f"{name} interval ({lo}, {hi}) needs lo < hi")
    tanned = [math.isinf(lo) or math.isinf(hi) for lo, hi in domains]
    breaks = []
    for (lo, hi), cs, tan in zip(domains, centers, tanned):
        if tan:
            b = _seed_breaks(lo, hi, cs, transform=math.atan)
            breaks.append(np.unique(np.clip(b, -_TAN_CAP, _TAN_CAP)))
        else:
            breaks.append(_seed_breaks(lo, hi, cs))

    def to_working(f):
        def g(*u):
            # tan and the Jacobians on the nodes, their product on the grid;
            # spread once f has dropped its temporaries
            x = [np.tan(ui) if tan else ui for ui, tan in zip(u, tanned)]
            v = f(*x, *u[len(x):])
            jac = [_spread(1.0 + xi * xi) for xi, tan in zip(x, tanned) if tan]
            return v * math.prod(jac[1:], start=jac[0])

        return g if any(tanned) else f

    return to_working, breaks


def _spread(u):
    """Node values (n, 15 or 1, 15 or 1) on their boxes' flat 15 x 15 grids;
    a flat array (the 1-d engine's nodes) or a number is its own spread."""
    if np.ndim(u) < 3:
        return u
    # np.repeat spreads as broadcast_to(...).ravel() does, at a fraction of
    # the call overhead
    if u.shape[2] == 1:  # constant along y: runs of equal values
        return np.repeat(u.ravel(), 225 // u.shape[1])
    return np.repeat(u, 15 // u.shape[1], axis=1).ravel()


# ----------------------------------------------------------------------------
# the refine loop and its panel rules
# ----------------------------------------------------------------------------

def _result(total, err, evals, converged, lead):
    """The result of one mesh: floats for a scalar integrand, arrays shaped
    like the integrand's leading axes for a vector one."""
    if not lead:
        return IntegralResult(float(total[0]), float(err[0]), evals, converged)
    return IntegralResult(total.reshape(lead), err.reshape(lead), evals,
                          converged)


def _panels_1d(g, ax, bx, ay, by, *sweep):  # a 1-d sweep is of one
    """K15 values of the intervals [ax, bx] with their error |K15 - G7|, in
    ``_panels_2d``'s form for boxes of zero height (ay = by, never read):
    the error lies all along x, so ex is the error and ey is 0, and the
    refine loop always halves x.  ``g`` takes the nodes alone."""
    mid = 0.5 * (ax + bx)
    half = 0.5 * (bx - ax)
    x = mid[:, None] + half[:, None] * _XGK[None, :]
    fx = g(x.ravel())
    shape = fx.shape[:-1] + (len(ax),)  # leading axes, then intervals
    # each component's (intervals, nodes) matrix is contracted by itself,
    # as a scalar integrand's is: a stacked product can round differently
    fx = fx.reshape(-1, *x.shape)
    k = np.array([half * (f @ _WGK) for f in fx]).reshape(shape)
    gg = np.array([half * (f[:, _GAUSS_IDX] @ _WG) for f in fx])
    err = np.abs(k - gg.reshape(shape))
    return k, err, err, np.zeros_like(err), x.size


def _panels_2d(g, ax, bx, ay, by, par=None, ends=None):
    """K15 x K15 values of the boxes with their error |K15xK15 - G7xG7| and
    the directional errors ex = |K15xK15 - G7(x)K15(y)| and
    ey = |K15xK15 - K15(x)G7(y)|, all read off one 15 x 15 grid per box.

    ``g`` returns (m,) values or a (k, m) array, one row per component; the
    four results take the integrand's leading axes and then one axis of
    boxes.  The last item is the number of points evaluated.  In a sweep
    integral i has the boxes ends[i]:ends[i + 1].  ``g`` takes node arrays
    (see the module docstring), its boxes' entries of ``par`` the third."""
    midx = 0.5 * (ax + bx)
    hx = 0.5 * (bx - ax)
    midy = 0.5 * (ay + by)
    hy = 0.5 * (by - ay)
    # nodes: (nbox, 15) each direction -> (nbox, 15, 15) tensor grid
    X = midx[:, None, None] + hx[:, None, None] * _XGK[None, :, None]
    Y = midy[:, None, None] + hy[:, None, None] * _XGK[None, None, :]
    step = _MAX_BATCH_POINTS // 225

    def batch(s):
        out = g(X[s], Y[s], *(() if par is None else (par[s, None, None],)))
        F = out.reshape(-1, 15, 15)  # the components' boxes end to end
        # the y rules, one row per x node, so a batch's grid values are
        # dropped with the batch
        rows = out.shape[:-1] + (len(X[s]), 15)
        return (F @ _WGK).reshape(rows), (F[:, :, 1::2] @ _WG).reshape(rows)

    parts = [batch(slice(i, i + step)) for i in range(0, len(ax), step)]
    Fk, Fg = (np.concatenate(r, axis=-2) for r in zip(*parts))
    area, (k, gx, gy, gg) = hx * hy, np.empty((4,) + Fk.shape[:-1])
    ends = (0, len(ax)) if ends is None else ends
    for a, b in zip(ends[:-1], ends[1:]):
        # then the x rules, over all the boxes of one integral at once: a
        # mat-vec rounds its last rows differently, so no slicing moves bits
        fk = Fk[..., a:b, :].reshape(-1, 15)
        fg = Fg[..., a:b, :].reshape(-1, 15)
        for o, f, w in zip((k, gx, gy, gg), (fk, fk[:, 1::2], fg, fg[:, 1::2]),
                           (_WGK, _WG) * 2):
            o[..., a:b] = area[a:b] * (f @ w).reshape(o[..., a:b].shape)
    return k, np.abs(k - gg), np.abs(k - gx), np.abs(k - gy), 225 * len(ax)


def _adapt(panels, g, grids, specs, params=None):
    """The one refine loop: adapt each seed grid xbreaks x ybreaks in
    ``grids`` to ``g`` under its spec in ``specs``, in lockstep, with
    ``panels`` (``_panels_2d``, or ``_panels_1d`` on a zero-height y edge)
    and ``params`` per integral; one (result, final corners) each."""
    if not specs:
        return []
    new = []
    for xb, yb in grids:
        ax, ay = np.meshgrid(xb[:-1], yb[:-1], indexing="ij")
        bx, by = np.meshgrid(xb[1:], yb[1:], indexing="ij")
        new.append(np.array([ax.ravel(), bx.ravel(), ay.ravel(), by.ravel()]))
    seed = [c.shape[1] for c in new]
    # the integrals still refining, in order; the bounds of each one's boxes
    # in ``new`` and in ``kept``, the boxes it kept from the last round
    live, nends = list(range(len(specs))), list(accumulate([0] + seed))
    new, kept, kends = np.concatenate(new, axis=1), None, [0] * len(nends)
    par = None if params is None else np.asarray(params, dtype=float)
    splits, out = [0] * len(specs), [None] * len(specs)
    # each round splits a box of every live integral: the budgets bound it
    while True:
        val, err, ex, ey, pts = panels(g, *new, None if par is None else
                                       np.repeat(par[live], np.diff(nends)),
                                       nends)
        k, per_box = val.size // new.shape[1], pts // new.shape[1]
        # the boxes, (4 + 4k, nbox): corners ax, bx, ay, by, then k rows each
        # of value, error, ex and ey, in a lone run's order per integral; on
        # contiguous rows a sum along axis 1 has the bits of a 1-d sum
        rows = np.concatenate([new, *(v.reshape(k, -1)
                                      for v in (val, err, ex, ey))])
        boxes = rows if kept is None else np.concatenate([
            part for j in range(len(live)) for part in (
                kept[:, kends[j]:kends[j + 1]], rows[:, nends[j]:nends[j + 1]])],
            axis=1)
        ends = [a + b for a, b in zip(kends, nends)]
        sizes = [b - a for a, b in zip(ends, ends[1:])]
        sums = np.array([boxes[4:4 + 2 * k, a:b].sum(axis=1)
                         for a, b in zip(ends, ends[1:])])
        total, toterr = sums[:, :k], sums[:, k:]
        tol = np.array([specs[i].tolerance_for(t) for i, t in zip(live, total)])
        converged = (toterr <= tol).all(axis=1).tolist()
        # each component's errors in units of its integral's component 0
        # tolerance; the weight of component 0 is exactly 1
        boxerr, exw, eyw = (boxes[4 + k:].reshape(3, k, -1) * np.repeat(
            tol[:, :1] / tol, sizes, axis=0).T).max(axis=1)
        picks = [np.empty(0, int)]
        for j, i in enumerate(live):
            if converged[j] or splits[i] >= specs[i].max_subdivisions:
                continue
            e = boxerr[ends[j]:ends[j + 1]]
            order = e.argsort()[::-1]
            n = int(e[order].cumsum().searchsorted(_BULK_FRACTION * e.sum())) + 1
            n = min(n, specs[i].max_subdivisions - splits[i], sizes[j])
            splits[i] += n
            picks.append(ends[j] + order[:n])
        idx = np.concatenate(picks)
        (ax, bx, ay, by), exi, eyi = boxes[:4].take(idx, 1), exw[idx], eyw[idx]
        # split across the direction that carries the error; the longer
        # edge only breaks an exact tie
        splitx = np.where(exi == eyi, bx - ax >= by - ay, exi > eyi)
        lo = np.where(splitx, ax, ay)
        hi = np.where(splitx, bx, by)
        mid = 0.5 * (lo + hi)
        # machine resolution: the midpoint of the edge to split rounds onto
        # one of its ends; an integral stops when all its picks are there
        cut = (mid != lo) & (mid != hi)
        idx, splitx, mid = idx[cut], splitx[cut], mid[cut]
        split = np.bincount(np.searchsorted(ends, idx, side="right") - 1,
                            minlength=len(live)).tolist()
        go = [j for j, s in enumerate(split) if s]
        # the others stop, having evaluated their seed and two boxes a split
        for j in set(range(len(live))).difference(go):
            out[live[j]] = (_result(total[j], toterr[j], per_box * (
                2 * sizes[j] - seed[live[j]]), converged[j], val.shape[:-1]),
                boxes[:4, ends[j]:ends[j + 1]].copy())
        if not go:
            return out
        # the halves, split at mid, C-ordered as the panels expect
        left, right = boxes[:4].take(idx, 1), boxes[:4].take(idx, 1)
        left[np.where(splitx, 1, 3), np.arange(len(idx))] = mid
        right[np.where(splitx, 0, 2), np.arange(len(idx))] = mid
        pends = list(accumulate([0] + [split[j] for j in go]))
        new = np.concatenate([h[:, a:b] for a, b in zip(pends, pends[1:])
                              for h in (left, right)], axis=1)
        keep = np.repeat(np.array(split) > 0, sizes)
        keep[idx] = False
        kept = boxes.compress(keep, axis=1)
        kends = list(accumulate([0] + [sizes[j] - split[j] for j in go]))
        live, nends = [live[j] for j in go], [2 * p for p in pends]


def integrate_radial(f, interval, spec: QuadratureSpec) -> IntegralResult:
    """Adaptive integral of ``f`` over [a, R] or [a, oo).

    Unbounded intervals are compactified by ``r = tan(theta)`` before the
    adaptive pass, so tails are resolved without a truncation radius.
    ``f`` must accept numpy arrays and return m values, or a (k, m) array
    for k components integrated on one partition (see the module
    docstring).
    """
    to_working, (breaks,) = _compactify((interval,), (spec.grading,))
    g = to_working(lambda x: np.asarray(f(x), dtype=float))
    return _adapt(_panels_1d, g, [(breaks, np.zeros(2))], [spec])[0][0]


# ----------------------------------------------------------------------------
# 2-d engines
# ----------------------------------------------------------------------------

def _integrate_2d(F, weight, specs, x_domain, y_domain, params=None):
    """The one 2-d front end: per spec in ``specs`` (a sweep if ``params``
    is given), the integral of ``weight(F)`` over x_domain x y_domain and the
    adapted mesh, frozen with the same weight and map.  The public 2-d
    engines are weights over it, none calling another: each spans it once."""
    to_working, _ = _compactify((x_domain, y_domain), ([], []))
    grids = [_compactify((x_domain, y_domain), [
        [(c[i], s[i] if isinstance(s, tuple) else s) for c, s in spec.grading]
        for i in (0, 1)])[1] for spec in specs]

    def working(G):
        return to_working(weight(G))

    return [(res, FrozenMesh2D(*corners, working)) for res, corners
            in _adapt(_panels_2d, working(F), grids, specs, params)]


@dataclass(frozen=True)
class FrozenMesh2D:
    """A frozen rectangle partition in the engine's working coordinates.

    Re-evaluating nearby integrands on one frozen mesh makes their quadrature
    errors vary smoothly with parameters, so finite differences of integrals
    stay clean.  ``working`` maps an integrand to the one the adaptation saw.
    """

    ax: np.ndarray
    bx: np.ndarray
    ay: np.ndarray
    by: np.ndarray
    working: object

    def evaluate(self, F) -> IntegralResult:
        vals, errs, _, _, n = _panels_2d(self.working(F), self.ax, self.bx,
                                         self.ay, self.by)
        # on contiguous rows a sum along axis 1 has the bits of a 1-d sum
        total, toterr = (v.reshape(-1, len(self.ax)).sum(axis=1)
                         for v in (vals, errs))
        return _result(total, toterr, n, True, vals.shape[:-1])


def _biradial_weight(F):
    """F times the 4*pi*rho^2 of the bi-radial reduction, on the grid."""
    def g(zeta, rho, *par):
        rho = _spread(rho)
        # ((F 4 pi) rho) rho, in place: each temporary of a batch's size
        # costs more to allocate than to fill
        v = F(_spread(zeta), rho, *map(_spread, par)) * (4.0 * math.pi)
        v *= rho
        v *= rho
        return v

    return g


def integrate_rect2d(F, spec: QuadratureSpec, x_domain, y_domain) -> IntegralResult:
    """Plain adaptive 2-d integral of F(x, y) over a rectangle.

    ``F`` returns m values, or a (k, m) array for k components integrated
    on one mesh (see the module docstring).  An axis may have an infinite
    end; it is compactified by ``tan``.  All weights are the caller's
    business; grading centers are (x, y) pairs in original coordinates.
    """
    def plain(G):
        return lambda x, y: np.asarray(G(_spread(x), _spread(y)), dtype=float)

    return _integrate_2d(F, plain, [spec], x_domain, y_domain)[0][0]


def integrate_biradial(F, spec: QuadratureSpec,
                       zeta_domain=(-math.inf, math.inf),
                       rho_domain=(0.0, math.inf), params=None):
    """Integral of an axially symmetric function over R^4.

    ``F(zeta, rho)`` is the profile in the axial coordinate ``zeta`` and the
    transverse radius ``rho``; the engine supplies the exact reduction weight
    ``4*pi*rho^2`` and compactifies unbounded directions by ``tan``.  Grading
    centers are (zeta, rho) pairs in original coordinates.

    A sweep: given ``params`` and one spec per entry in ``spec``, F(zeta,
    rho, param) gets each point's parameter, and the integrals are refined
    in lockstep (see the module docstring) into a ``Sweep`` of results.
    """
    sweep = Sweep(res for res, _ in _integrate_2d(
        F, _biradial_weight, [spec] if params is None else spec, zeta_domain,
        rho_domain, params))
    return sweep[0] if params is None else sweep


def build_frozen_mesh(F, spec, zeta_domain=(-math.inf, math.inf),
                      rho_domain=(0.0, math.inf), params=None):
    """Adapt a bi-radial mesh to ``F`` and freeze it for re-evaluation,
    raising unless it converged; a sweep, as in ``integrate_biradial``,
    gives one mesh per spec."""
    meshes = []
    for res, mesh in _integrate_2d(F, _biradial_weight, [spec] if params is None
                                   else spec, zeta_domain, rho_domain, params):
        meshes.append(mesh)
        res.expect("frozen-mesh adaptation")
    return meshes[0] if params is None else meshes


def integrate_axisym_sphere(F, spec: QuadratureSpec, theta_domain,
                            radial_weight) -> IntegralResult:
    """Integral over a radial chart of an axisymmetric integrand.

    Computes ``int F(theta, psi) * w(theta) * 4*pi*sin(psi)^2 dtheta dpsi``
    over theta_domain x (0, pi), where ``theta`` is the radial chart
    coordinate, ``psi`` the zonal angle of the S^3 factor, and the caller
    supplies ``w = radial_weight`` (``sin(theta)^3`` on the round S^4,
    ``theta^3`` on flat R^4).  Grading centers are (theta, psi) pairs.
    """
    def weight(G):
        def g(theta, psi):
            # each axis's factor on its nodes, their product on the grid
            w = _spread(radial_weight(theta) * 4.0 * math.pi)
            w *= _spread(np.sin(psi) ** 2)
            return np.asarray(G(_spread(theta), _spread(psi)), dtype=float) * w

        return g

    return _integrate_2d(F, weight, [spec], theta_domain, (0.0, math.pi))[0][0]


# ----------------------------------------------------------------------------
# 4-ball and 3-sphere rules
# ----------------------------------------------------------------------------

@lru_cache(maxsize=32)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n (each ``leggauss`` call runs an eigenvalue solve) and returned
    read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _sphere3_slices(n1: int, n2: int, n3: int):
    """Product rule on the unit S^3 with weights summing to 2*pi^2, yielded
    as (nodes (m, 4), weights) over runs of phi1 nodes with at most
    _MAX_BATCH_POINTS rule nodes each (a single phi1 node may exceed it)."""
    t1, w1 = gauss_legendre(n1)  # phi1 in [0, pi], weight sin^2
    phi1 = 0.5 * math.pi * (t1 + 1.0)
    w1 = 0.5 * math.pi * w1 * np.sin(phi1) ** 2
    t2, w2 = gauss_legendre(n2)  # cos(phi2) in [-1, 1]
    phi2 = np.arccos(t2)
    phi3 = 2.0 * math.pi * (np.arange(n3) + 0.5) / n3  # periodic: midpoint rule
    w3 = np.full(n3, 2.0 * math.pi / n3)
    step = max(1, _MAX_BATCH_POINTS // (n2 * n3))
    for i in range(0, n1, step):
        P1, P2, P3 = np.meshgrid(phi1[i:i + step], phi2, phi3, indexing="ij")
        W = (w1[i:i + step, None, None] * w2[None, :, None]
             * w3[None, None, :]).ravel()
        s1, c1 = np.sin(P1).ravel(), np.cos(P1).ravel()
        s2, c2 = np.sin(P2).ravel(), np.cos(P2).ravel()
        s3, c3 = np.sin(P3).ravel(), np.cos(P3).ravel()
        yield np.stack([c1, s1 * c2, s1 * s2 * c3, s1 * s2 * s3], axis=1), W


def _sphere3_nodes(n1: int, n2: int, n3: int):
    """The whole product rule on the unit S^3: nodes (m, 4) and weights."""
    nodes, weights = zip(*_sphere3_slices(n1, n2, n3))
    return np.concatenate(nodes), np.concatenate(weights)


def integrate_sphere3(f, radius: float, center, spec: QuadratureSpec) -> IntegralResult:
    """Surface integral of ``f`` over the round 3-sphere of given radius.

    ``f`` takes an (m, 4) array of points, m <= _MAX_BATCH_POINTS per call
    for the rules up to n = 128.  The rule order doubles from n = 8 until two
    consecutive estimates agree within tolerance, and stops unconverged
    after n = 128 (2 n^3 = 4.2e6 nodes) with the difference of the last two
    estimates as its error; exact for constants (area 2*pi^2*radius^3).
    """
    if radius <= 0.0:
        raise ValueError("sphere radius must be positive")
    center = np.asarray(center, dtype=float)
    prev = None
    evals = 0
    for n in (8, 16, 32, 64, 128):
        vals, w = np.empty(2 * n ** 3), np.empty(2 * n ** 3)
        k = 0
        for nodes, wk in _sphere3_slices(n, n, 2 * n):
            vals[k:k + len(wk)] = f(center[None, :] + radius * nodes)
            w[k:k + len(wk)] = wk
            k += len(wk)
        evals += len(w)
        # one sum over the whole rule, as if it had been built at once
        est = float(np.sum(vals * w)) * radius ** 3
        if prev is not None:
            err = abs(est - prev)
            if err <= spec.tolerance_for(est):
                return IntegralResult(est, err, evals, True)
        prev = est
    return IntegralResult(est, err, evals, False)


def integrate_ball4(f, radius: float, spec: QuadratureSpec) -> IntegralResult:
    """Integral of ``f`` over the Euclidean 4-ball of given radius.

    Tensor product of an adaptive radial rule with the order-12 S^3 product
    rule; the angular truncation error is estimated by doubling the angular
    order at a probe radius and folded into the reported error.
    """
    if radius <= 0.0:
        raise ValueError("ball radius must be positive")
    nodes, w = _sphere3_nodes(12, 12, 24)
    nodes2, w2 = _sphere3_nodes(24, 24, 48)

    def mean(r, nodes, w):
        return float(np.sum(np.asarray(f(r * nodes), dtype=float) * w))

    # angular truncation probe at a representative radius
    probe = 0.5 * radius
    angerr = abs(mean(probe, nodes, w) - mean(probe, nodes2, w2)) \
        * radius ** 4 / 4.0
    res = integrate_radial(
        lambda r: np.array([mean(ri, nodes, w) for ri in r]) * r ** 3,
        (0.0, radius), spec)
    # each radial node and its len(w) points of f, and the probe's two rules
    evals = res.evaluations * (1 + len(w)) + len(w) + len(w2)
    return IntegralResult(res.value, res.error_estimate + angerr, evals,
                          res.converged)
