"""qposlab: numerical certification of partial positivity for line-bundle classes.

Desk-scale models: flat complex tori with constant classes plus potentials
(spectral calculus, Monge-Ampere solver, eigenvalue certificates), exact
rational surface Picard lattices (cone duality), polynomial maps (degeneracy
loci, fibre dimensions) and singular-potential gluing.
"""

from .errors import (
    ConfigError,
    ConsistencyFailure,
    HypothesisViolation,
    ModelError,
    NonConvergence,
    NumericsError,
    PipelineFailure,
    SearchExhausted,
    StepFailure,
)
from .geometry import (
    ConstantHermitianClass,
    KahlerClass,
    TorusModel,
    choose_k,
    dk_constant,
    dk_expansion,
    intersection_number,
)
from .calculus import (
    HermitianFormField,
    PotentialField,
    complex_hessian,
    fd_complex_hessian,
)
from .ma_solver import MAProblem, MASolveResult, solve_ma
from .positivity import (
    OnePositiveRun,
    RegionCertificate,
    eigenvalues_relative,
    one_positive_pipeline,
)
from .surface_cones import (
    DivisorClass,
    SurfaceLattice,
    abelian_diag_lattice,
    converse_ag_surface,
    hirzebruch_f1_lattice,
    is_cohomologically_1ample,
    is_pseudoeffective,
    p1xp1_lattice,
    positive_pairing_witness,
)
from .maps_degeneracy import (
    PolyMap,
    degeneracy_locus_scan,
    fibre_dimension_estimate,
    sigma_j_minors,
)
from .gluing import (
    GlueReport,
    SingularPotential,
    dilate,
    regularized_max,
    select_threshold,
    zariski_fujita_pipeline,
)

__version__ = "0.1.0"
