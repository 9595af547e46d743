"""Mixed stress-displacement DG solver for linear elasticity."""

from .forms import (
    AssembledSystem,
    MaterialParams,
    StabilizationParams,
    assemble_system,
    compliance_apply,
    stiffness_apply,
)
from .mesh import (
    FaceTopology,
    Mesh,
    MeshError,
    build_face_topology,
    build_uniform_quad,
    build_uniform_tet,
    build_uniform_tri,
    read_mesh,
    refine_red,
)
from .polybasis import (
    BasisSet,
    QuadRule,
    orthonormal_basis,
    simplex_quadrature,
    tensor_gauss,
)
from .solve import SolveReport, SolverError, solve_saddle
from .spaces import (
    DofMap,
    FieldCoeffs,
    build_dofmap,
)
from .verify import (
    ManufacturedCase,
    case_2d_poly,
    case_3d_sine,
    error_energy,
    error_l2,
    observed_orders,
)

__all__ = [
    "AssembledSystem",
    "BasisSet",
    "DofMap",
    "FaceTopology",
    "FieldCoeffs",
    "ManufacturedCase",
    "MaterialParams",
    "Mesh",
    "MeshError",
    "QuadRule",
    "SolveReport",
    "SolverError",
    "StabilizationParams",
    "assemble_system",
    "build_dofmap",
    "build_face_topology",
    "build_uniform_quad",
    "build_uniform_tet",
    "build_uniform_tri",
    "case_2d_poly",
    "case_3d_sine",
    "compliance_apply",
    "error_energy",
    "error_l2",
    "observed_orders",
    "orthonormal_basis",
    "read_mesh",
    "refine_red",
    "simplex_quadrature",
    "solve_saddle",
    "stiffness_apply",
    "tensor_gauss",
]

__version__ = "0.1.0"
