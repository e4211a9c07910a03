"""Bakry-Emery curvature of connection graphs.

Curvature values come from the smallest eigenvalue of small Hermitian
curvature matrices assembled from the incomplete 2-ball around a vertex; an
independent semidefinite-feasibility bisection cross-checks them.  See the
README for the graph JSON schema and the CLI.
"""

import importlib

from .errors import CrossCheckError, ValidationError
from .graphs import (
    ConnectionGraph,
    LocalStructure,
    is_locally_balanced,
    load_graph,
    local_structure,
    signature_groups_commute,
    switch,
)
from .hermitian import (
    HermitianMatrix,
    min_eig_hermitian,
    schur_complement,
)
from .operators import (
    delta_matrix,
    gamma2_matrix,
    gamma_matrix,
    q_matrix,
)
from .curvature import (
    INF,
    CurvatureBundle,
    CurvatureProfile,
    canonical_basis,
    curvature,
    curvature_bundle,
    curvature_function,
    curvature_matrix,
    curvature_oracle,
    curvature_profile,
    general_basis,
)

# Names from modules that a curvature call never runs, imported on first
# access (PEP 562) so that ``import concurv`` and the CLI do not load them.
_LAZY = {
    name: module
    for module, names in (
        ("tensor", ("phi_map", "psi_extend", "ric_and_metric", "tangent_from_function",
                    "tensor_matrix_check")),
        ("product", ("ProductSpec", "cartesian_product", "product_decomposition",
                     "product_vertex", "star_product")),
        ("local_ops", ("EditReport", "add_spherical_edge", "merge_s2", "s1_in_regular")),
    )
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "INF",
    "ConnectionGraph",
    "CrossCheckError",
    "CurvatureBundle",
    "CurvatureProfile",
    "EditReport",
    "HermitianMatrix",
    "LocalStructure",
    "ProductSpec",
    "ValidationError",
    "add_spherical_edge",
    "canonical_basis",
    "cartesian_product",
    "curvature",
    "curvature_bundle",
    "curvature_function",
    "curvature_matrix",
    "curvature_oracle",
    "curvature_profile",
    "delta_matrix",
    "gamma2_matrix",
    "gamma_matrix",
    "general_basis",
    "is_locally_balanced",
    "load_graph",
    "local_structure",
    "merge_s2",
    "min_eig_hermitian",
    "phi_map",
    "product_decomposition",
    "product_vertex",
    "psi_extend",
    "q_matrix",
    "ric_and_metric",
    "s1_in_regular",
    "schur_complement",
    "signature_groups_commute",
    "star_product",
    "switch",
    "tangent_from_function",
    "tensor_matrix_check",
]

__version__ = "0.1.0"
