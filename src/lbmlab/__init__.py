"""Moment-space lattice Boltzmann toolkit.

Building blocks: discrete velocity sets and moment matrices (lattice),
polynomial equilibria (equilibrium), the collide/stream engine (scheme),
equivalent-equation analysis of a snapshot (analysis), and refinement
studies that measure the scheme's consistency orders (verify).
"""

from .analysis import (
    DefectField,
    PdeReport,
    SmoothField,
    conservation_defect,
    euler_flux_divergence,
    fd_gradient,
    ns_flux_correction,
    pde_report,
    technical_lemma_prediction,
)
from .equilibrium import (
    EquilibriumModel,
    build_equilibrium,
    equilibrium_distribution,
    equilibrium_jacobian,
    equilibrium_moments,
    momentum_flux,
)
from .fields import InitialField, SineComponent, shear_wave_field
from .lattice import (
    MomentMatrix,
    VelocitySet,
    build_moment_matrix,
    build_velocity_set,
    lambda_tensor,
)
from .scheme import (
    SchemeParams,
    SchemeState,
    collide,
    conservation_audit,
    initialize_equilibrium,
    load_checkpoint,
    moments_of,
    relaxation_ode_euler_step,
    run,
    save_checkpoint,
    step,
    stream,
    total_mass,
    total_momentum,
)
from .verify import (
    StudyOutcome,
    ViscosityMeasurement,
    measure_viscosity,
    refinement_studies,
    resolution_residuals,
    run_verification,
)

__version__ = "0.1.0"
