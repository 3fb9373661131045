"""extinctlab: numerical laboratory for finite-time extinction of semilinear
parabolic equations with degenerate absorption potentials.

The package verifies, at desk scale, the two routes to the extinction
criterion for potentials a(r) = d0 exp(-omega(r)/r^2): a local-energy route
(differential inequality for the outer-region energy, dominating curve,
multi-round time bound) and a spectral route (ground states of the scaled
Schrodinger operator, summability criteria), next to a direct radial solver
whose trajectories feed both.
"""

from .analysis import (
    EquivalenceReport,
    QuadratureResult,
    SeriesDiagnosis,
    composite_endpoint_integral,
    dini_integral,
    dini_series,
    equivalence_check,
    spectral_log_sum,
    endpoint_equivalence_ratios,
)
from .energy import (
    EnergyLedger,
    ExponentPack,
    compute_ledger,
    ode_inequality_residual,
    probe_interpolation,
    probe_outer_energy_relation,
    verify_global_estimate,
)
from .odi import (
    ExtinctionBoundReport,
    NoPlateauError,
    OdiConfig,
    OdiCurve,
    build_curve,
    curve_y1_and_tau_triple_prime,
    curve_y2,
    extinction_iteration,
    region_classifier,
    solve_extinction_radius,
    solve_tau_double_prime,
    solve_tau_prime,
)
from .profiles import (
    ConditionReport,
    ConstantPotential,
    MonotonicityError,
    OmegaProfile,
    PotentialField,
    ProfileError,
    RhoMap,
    as_potential,
    build_rho_map,
    check_conditions,
)
from .solver import (
    FluxOperator,
    NumericsError,
    ProblemSpec,
    RadialGrid,
    SolutionTrajectory,
    ode_extinction_time,
    positivity_probe,
    run,
)
from .spectral import (
    CriterionReport,
    GroundState,
    SpectralScan,
    ground_state,
    mu_n_sequence,
    spectral_criterion_series,
    eigenvalue_sandwich_scan,
    inverse_map_sandwich,
)

__version__ = "0.1.0"
