"""Numerical laboratory for the singular Yamabe problem on four-manifolds
with Z2-conical points.

Subpackages and modules:

* ``cyl.constants``   -- closed-form constants and the bubble profile on R^4
* ``cyl.quadrature``  -- adaptive Gauss-Kronrod engines (radial, bi-radial,
  rectangle, axisymmetric sphere, 4-ball, 3-sphere)
* ``cyl.interaction`` -- double-bubble interaction curves a, b, c, f and their
  asymptotics
* ``cyl.geometry``    -- conical charts, link gauges, curvature, the
  RP^3-football model
* ``cyl.green``       -- Dirichlet Green functions of the conformal Laplacian
  on lifted balls, equivariant assembly, mass extraction
* ``cyl.minmax``      -- test functions, the five-leg competitor path and
  Yamabe-quotient profiles
* ``cyl.cli``         -- command-line driver and report writers
"""

from cyl.constants import ClosedFormConstants, sobolev_constants

__all__ = ["ClosedFormConstants", "sobolev_constants"]

__version__ = "0.1.0"
