"""Taylor-Hood finite element laboratory for 2D slip-with-friction flow.

The package solves stationary Stokes and Navier-Stokes systems on the unit
square and on polygonal disks with an impermeability condition ``u . n = 0``
and a tangential friction condition with coefficient ``alpha`` on the
boundary, and provides the spectral and sweep experiments that certify the
analytic structure of the problem: energy identities, Korn-type coercivity
and its loss on the rotationally symmetric disk, inf-sup stability, the
rotational compatibility condition, and the ``alpha -> 0`` / ``alpha -> oo``
limit regimes.
"""

__version__ = "0.1.0"

from .errors import (
    DuplicateRun,
    IncompatibleData,
    InvalidArgument,
    MaxIterations,
    NumericalError,
    ParseError,
    SingularSystem,
    SlipStokesError,
    VersionMismatch,
)
from .mesh import (
    BoundaryFrameTable,
    TriMesh,
    boundary_frames,
    make_disk,
    make_unit_square,
    read_mesh,
    write_mesh,
)
from .fem import (
    FeSystem,
    NormReport,
    QuadratureRule,
    build_taylor_hood,
    interpolate,
    norms,
    pressure_error_l2,
    velocity_error_h1,
)
from .fields import (
    ClosedFormField,
    ProblemData,
    disk_compatible_forcing,
    disk_incompatible_forcing,
    disk_tangential_drive,
    rigid_rotation,
    stokes_mms,
    navier_stokes_mms,
    sweep_forcing,
)
from .forms import (
    assemble_convection_skew,
    assemble_divergence,
    assemble_friction,
    assemble_load,
    assemble_pressure_mass,
    assemble_velocity_h1,
    assemble_velocity_mass,
    assemble_viscous,
    boundary_rotation_functional,
    pressure_integral_vector,
)
from .constraints import (
    ConstraintPlan,
    apply_plan,
    build_constraint_plan,
    build_dirichlet_plan,
)
from .saddle import SaddleSystem, factor_solve
from .stokes import (
    Solution,
    boundary_identity_defect,
    check_compatibility,
    energy_report,
    exponent_r,
    exponent_t,
    make_compatible,
    solve_friction_sweep,
    solve_stokes,
)
from .navierstokes import (
    IterationLog,
    PicardOptions,
    smallness_indicator,
    solve_navier_stokes,
    trilinear_defects,
)
from .spectra import (
    SpectralReport,
    beta_inequality_checks,
    infsup_constant,
    korn_quotient_min,
)
from .experiments import (
    ExperimentConfig,
    RunReport,
    fit_rate,
    parse_config,
    run_experiment,
    write_report,
)
from .persistence import (
    RunRegistryEntry,
    load_solution,
    store_run,
    write_solution,
)
