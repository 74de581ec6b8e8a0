"""Certified successive approximation for nonlinear Volterra-type equations.

The package couples a Picard solver for vector integral equations with
scalar majorant machinery: every iterate of the main solve is dominated,
node by node, by an iterate of a one-dimensional monotone chain whose
limit is computable to quadrature accuracy.  That chain also decides
whether the bound blows up (and where), so approximations come with
certified error tails and a usable time horizon.
"""

from .algebraic_majorant import (
    BranchResult,
    ConvexityReport,
    LyapunovSolution,
    LyapunovSpec,
    TangencyResult,
    check_convexity,
    majorant_branch,
    solve_lyapunov,
    solve_tangency,
)
from .conditions import (
    CheckOutcome,
    ConditionReport,
    ConditionStatus,
    TrajectorySampler,
    Witness,
    run_suite,
)
from .corpus import CorpusEntry, corpus_build, corpus_names, corpus_param_types
from .errors import (
    CostLimitError,
    DomainError,
    ExprError,
    ExprSyntaxError,
    NumericError,
    SpecValidationError,
    UnknownVariableError,
    VolmajError,
)
from .expr import parse, to_text
from .integral_majorant import (
    Blowup,
    BlowupReport,
    CauchySolution,
    MajorantSolution,
    MajorantSpec,
    PicardChain,
    UpperSolutionReport,
    certified_tail,
    check_upper_solution,
    classify_blowup,
    majorant_picard,
    solve_cauchy,
    solve_majorant,
)
from .meshes import Mesh, Trajectory, zero_trajectory
from .picard import (
    DominationReport,
    SolveReport,
    SolveStatus,
    residual_norms,
    solve_main,
    verify_domination,
)
from .problem import (
    DenseOperator,
    KernelStage,
    TridiagonalOperator,
    VolterraProblem,
)
from .quadrature import (
    ImproperResult,
    WeightTable,
    adaptive_quad,
    graded_mesh,
    improper_integral,
    nested_integral,
)

__version__ = "0.1.0"

__all__ = [
    "Blowup",
    "BlowupReport",
    "BranchResult",
    "CauchySolution",
    "CheckOutcome",
    "ConditionReport",
    "ConditionStatus",
    "ConvexityReport",
    "CorpusEntry",
    "CostLimitError",
    "DenseOperator",
    "DomainError",
    "DominationReport",
    "ExprError",
    "ExprSyntaxError",
    "ImproperResult",
    "KernelStage",
    "LyapunovSolution",
    "LyapunovSpec",
    "MajorantSolution",
    "MajorantSpec",
    "Mesh",
    "NumericError",
    "PicardChain",
    "SolveReport",
    "SolveStatus",
    "SpecValidationError",
    "TangencyResult",
    "Trajectory",
    "TrajectorySampler",
    "TridiagonalOperator",
    "UnknownVariableError",
    "UpperSolutionReport",
    "VolmajError",
    "VolterraProblem",
    "WeightTable",
    "Witness",
    "adaptive_quad",
    "certified_tail",
    "check_convexity",
    "check_upper_solution",
    "classify_blowup",
    "corpus_build",
    "corpus_names",
    "corpus_param_types",
    "graded_mesh",
    "improper_integral",
    "majorant_branch",
    "majorant_picard",
    "nested_integral",
    "parse",
    "residual_norms",
    "run_suite",
    "solve_cauchy",
    "solve_lyapunov",
    "solve_main",
    "solve_majorant",
    "solve_tangency",
    "to_text",
    "verify_domination",
    "zero_trajectory",
]
