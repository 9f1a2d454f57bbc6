"""fischerlab: apolar inner products, Fischer decompositions, and
multiplication-operator spectra over exact and float coefficient fields."""

__version__ = "0.1.0"

from .errors import (ConditioningError, DimensionMismatchError, FischerLabError,
                     FormatError, InvalidInputError, NumericalError)
from .fields import EXACT, FLOAT, GaussianRational
from .polyalg import (NEG_INF, Poly, apply_diff_op, count_monomials,
                      enumerate_monomials, load_poly, poly_from_dict,
                      poly_to_dict, save_poly, variables)
from .apolar import (adjoint_residual, bargmann_mc_estimate, beauzamy_bound,
                     c_alpha_m, inner_product, norm, norm_sq,
                     reznick_residual, shapiro_pointwise_residual)
from .fischer import (DecompositionResult, FischerMatrix, decompose_direct,
                      decompose_series, fischer_matrix, project_homogeneous)
from .spectral import (MultiplicationMatrix, QuadraticClass, SpectralReport,
                       classify_quadratic_2d, kernel_basis, ks_exponent_fit,
                       mult_matrix, sigma_extremes)
from .entire import (LambdaSeq, OrderEstimate, TaylorStream, blambda_norm,
                     check_lambda_condition, check_main_condition,
                     order_estimate, stream_from_dict)

__all__ = [name for name in dir() if not name.startswith("_")]
