"""Semilinear heat problems on moving domains.

A user declares a time-dependent diffeomorphism r(t, y) of a reference
domain and a reaction term f(t, u); the package derives the equivalent
fixed-domain problem with time-dependent coefficients symbolically,
machine-checks the structural hypotheses behind well-posedness and
dissipativity, solves the fixed-domain problem with a finite-volume IMEX
scheme, and runs pullback-dynamics experiments on the resulting process.
"""

from . import expr
from .diffeo import (BallDomain, BoxDomain, DegenerateDiffeoError,
                     DiffeoError, DiffeoSpec, H4Report, MetricBundle,
                     MissingInverseError, SeparabilityReport, boundary_points,
                     build_metric, check_H1, check_H4, ellipticity_probe,
                     hoelder_probe, parse_diffeo, validate_inverse)
from .grid import (BoxGrid, GridError, RadialGrid, SparseOperator, assemble_A,
                   inner, norm_H1, norm_L2, read_snapshot, write_snapshot)
from .problem import (GrowthReport, ProblemError, SignReport,
                      TransformedProblem, assemble, check_H2, check_H3)
from .pullback import (DecayFit, GapReport, PullbackError, absorbing_radius,
                       cocycle_check, decay_fit, drift_norm, factorization_probe,
                       pullback_converge)
from .solver import (CgError, GridH1Error, MmsReport, SolverError, StepperConfig,
                     Trajectory, manufactured_source, mms_convergence, run,
                     run_homogeneous)

__version__ = "0.1.0"

__all__ = [
    "expr",
    "BallDomain", "BoxDomain", "DegenerateDiffeoError", "DiffeoError",
    "DiffeoSpec", "H4Report", "MetricBundle", "MissingInverseError",
    "SeparabilityReport", "boundary_points", "build_metric", "check_H1",
    "check_H4", "ellipticity_probe", "hoelder_probe", "parse_diffeo",
    "validate_inverse",
    "BoxGrid", "GridError", "RadialGrid", "SparseOperator", "assemble_A",
    "inner", "norm_H1", "norm_L2", "read_snapshot", "write_snapshot",
    "GrowthReport", "ProblemError", "SignReport", "TransformedProblem",
    "assemble", "check_H2", "check_H3",
    "DecayFit", "GapReport", "PullbackError", "absorbing_radius",
    "cocycle_check", "decay_fit", "drift_norm", "factorization_probe",
    "pullback_converge",
    "CgError", "GridH1Error", "MmsReport", "SolverError", "StepperConfig", "Trajectory",
    "manufactured_source", "mms_convergence", "run", "run_homogeneous",
    "__version__",
]
