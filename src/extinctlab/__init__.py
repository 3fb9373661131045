"""extinctlab: numerical laboratory for finite-time extinction of semilinear
parabolic equations with degenerate absorption potentials.

The package verifies, at desk scale, the two routes to the extinction
criterion for potentials a(r) = d0 exp(-omega(r)/r^2): a local-energy route
(differential inequality for the outer-region energy, dominating curve,
multi-round time bound) and a spectral route (ground states of the scaled
Schrodinger operator, summability criteria), next to a direct radial solver
whose trajectories feed both.

The package exports no names; import from the modules, e.g.
``from extinctlab.solver import run``.
"""

__version__ = "0.1.0"
