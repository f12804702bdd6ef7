"""Real similarity to diagonally dominant matrices: decision, certificates,
scalings, and brute-force cross-validation."""

from .classify import (BORDERLINE_TOL, DDClassification, Finding, TwoByTwoParams,
                       Verdict, classify, classify_2x2, is_borderline,
                       params_feasible, params_to_matrix)
from .construct import (MARGIN_FRACTION, SimilarityCertificate, Target,
                        build_complex_dd_transform, build_real_dd_transform,
                        scale_jordan_to_dd)
from .core import (Axis, DominanceReport, GershgorinDisc, as_matrix,
                   comparison_matrix, default_dominance_tol, gershgorin_discs,
                   is_diag_dominant, similarity_residual)
from .oracle import (GridSearchResult, RandomSearchResult, grid_search_2x2,
                     random_similarity_search)
from .special import (HURWITZ_TOL, DiagonalSign, ScalingCertificate,
                      h_matrix_scaling, is_h_matrix, is_hurwitz, is_m_matrix,
                      is_metzler, is_z_matrix, metzler_hurwitz_scaling)
from .spectral import (CLUSTER_TOL, ComplexJordanBlock, ComplexPair,
                       EigenStructure, RealEigenvalue, RealJordanBlock,
                       RealJordanForm, eigen_structure, jordan_residual_tol,
                       real_jordan_form)
from . import errors

__version__ = "0.3.0"

__all__ = [
    "Axis", "BORDERLINE_TOL", "CLUSTER_TOL", "ComplexJordanBlock",
    "ComplexPair", "DDClassification", "DiagonalSign", "DominanceReport",
    "EigenStructure", "Finding", "GershgorinDisc", "GridSearchResult",
    "HURWITZ_TOL", "MARGIN_FRACTION", "RandomSearchResult", "RealEigenvalue",
    "RealJordanBlock", "RealJordanForm", "ScalingCertificate",
    "SimilarityCertificate", "Target", "TwoByTwoParams", "Verdict",
    "as_matrix", "build_complex_dd_transform", "build_real_dd_transform",
    "classify", "classify_2x2", "comparison_matrix", "default_dominance_tol",
    "eigen_structure", "errors", "gershgorin_discs", "grid_search_2x2",
    "h_matrix_scaling", "is_borderline", "is_diag_dominant", "is_h_matrix",
    "is_hurwitz", "is_m_matrix", "is_metzler", "is_z_matrix",
    "jordan_residual_tol", "metzler_hurwitz_scaling", "params_feasible",
    "params_to_matrix", "random_similarity_search", "real_jordan_form",
    "scale_jordan_to_dd", "similarity_residual",
]
