"""Conical charts and their normalizations.

* ``fields``    -- chart metric fields with analytic or differenced derivatives
* ``curvature`` -- Christoffel / Riemann / Ricci / Weyl snapshots and probes
* ``links``     -- functions, tensor families and the gauge flow on the link
* ``cnc``       -- the conformal-normal-coordinate polynomial and cutoffs
* ``football``  -- the RP^3-football model manifold and conical pullbacks
"""
