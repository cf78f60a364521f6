"""Moment-space lattice Boltzmann toolkit.

Building blocks: discrete velocity sets and moment matrices (lattice),
polynomial equilibria (equilibrium), the collide/stream engine (scheme),
equivalent-equation analysis of a snapshot (analysis), and refinement
studies that measure the scheme's consistency orders (verify).
"""

import os

# One OpenBLAS thread unless the user set a count: OpenBLAS's helper threads
# are not pinned with ``run``'s processes and stall them.  On a 2-vCPU Xeon,
# ``lbmlab run`` on 256x256 D2Q9 took a median 1.18 s with default threads
# against 0.96 s with one (1.60 against 1.46 s on one process), and ``verify
# --study all`` on N x 8 grids 0.56 against 0.49 s, with the same output
# bytes.  A program that imported numpy before lbmlab keeps its threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
from .fields import InitialField, SineComponent
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
