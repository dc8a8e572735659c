"""Nonlinear stability certification for planar point-vortex relative equilibria.

The package reformulates the relative dynamics of N planar point vortices as
a Lie-Poisson system on a space of skew-Hermitian matrices, and certifies
Lyapunov stability of relative equilibria through a constrained second-order
(energy-Casimir) test backed by linear spectra.
"""

__version__ = "0.2.0"

from .algebra import (
    Circulations,
    CouplingMatrix,
    MuMatrix,
    Regime,
    build_coupling_matrix,
    flatten,
    lie_bracket,
    pairing,
    unflatten,
)
from .constraints import (
    casimir,
    casimir_gradient,
    casimir_values,
    constraint_jacobian,
    constraint_residuals,
    in_open_set,
    submersion_rank_check,
)
from .dynamics import (
    Trajectory,
    Which,
    full_vector_field,
    integrate,
    invariant_drift_report,
    lie_poisson_vector_field,
    moment_map,
    relative_coordinates,
    trajectory_to_csv,
)
from .errors import VortexStabError
from .hamiltonian import (
    VortexConfiguration,
    full_hamiltonian,
    reduced_gradient,
    reduced_hamiltonian,
)
from .report import AnalysisReport, analyze, gamma_sweep
from .scenarios import Scenario, build_scenario, scenario_fixed_point
from .stability import (
    CertificateResult,
    MultiplierSet,
    Verdict,
    energy_casimir_certificate,
    independence_check,
    is_fixed_point,
    linearize,
    restricted_hessian,
    solve_multiplier_system,
    spectrum,
    sylvester_verdict,
    tangent_basis,
)

__all__ = [
    "__version__",
    "AnalysisReport",
    "CertificateResult",
    "Circulations",
    "CouplingMatrix",
    "MultiplierSet",
    "MuMatrix",
    "Regime",
    "Scenario",
    "Trajectory",
    "Verdict",
    "VortexConfiguration",
    "VortexStabError",
    "Which",
    "analyze",
    "build_coupling_matrix",
    "build_scenario",
    "casimir",
    "casimir_gradient",
    "casimir_values",
    "constraint_jacobian",
    "constraint_residuals",
    "energy_casimir_certificate",
    "flatten",
    "full_hamiltonian",
    "full_vector_field",
    "gamma_sweep",
    "in_open_set",
    "independence_check",
    "integrate",
    "invariant_drift_report",
    "is_fixed_point",
    "lie_bracket",
    "lie_poisson_vector_field",
    "linearize",
    "moment_map",
    "pairing",
    "reduced_gradient",
    "reduced_hamiltonian",
    "relative_coordinates",
    "restricted_hessian",
    "scenario_fixed_point",
    "solve_multiplier_system",
    "spectrum",
    "submersion_rank_check",
    "sylvester_verdict",
    "tangent_basis",
    "trajectory_to_csv",
    "unflatten",
]
