"""Verified tail-probability bounds for p-norm spaces.

Discrete measures stand in for random elements; each classical bound is
evaluated as an exact (or Monte Carlo) tail probability next to its
closed-form right-hand side, with the slack reported.
"""

from .bounds import (
    BANACH_DUAL,
    BANACH_MAHALANOBIS,
    CHEN,
    EUCLIDEAN,
    GRENANDER,
    INEQUALITIES,
    RAO_FORWARD,
    RAO_INVERSE,
    SCALAR,
    BoundReport,
    banach_dual_bound,
    banach_mahalanobis_bound,
    chen,
    euclidean_chebyshev,
    grenander,
    mc_tail,
    rao,
    scalar_chebyshev,
    sweep,
)
from .covop import (
    CovarianceOperator,
    InverseOperator,
    apply,
    boundedness_check,
    build,
    cauchy_estimate,
    invert,
    linearity_check,
    load_operator,
    mahalanobis,
    quad_form,
    save_operator,
)
from .errors import (
    ApplicabilityError,
    CenteringError,
    CouplingError,
    NotPositiveDefiniteError,
    RoleError,
    ShapeError,
    TailboundsError,
)
from .hilbert import (
    EquivalenceResult,
    RieszMap,
    bound_equivalence,
    hilbert_covariance,
    inverse_norm_pair,
    isometry_pushforward_moment,
    riesz,
    verify_ST_equals_SH,
)
from .measure import (
    DiscreteMeasure,
    Sampler,
    center,
    empirical,
    load_measure,
    load_sampler,
    mean,
    pushforward,
    quantize,
    quantize_points,
    save_measure,
    second_moment,
)
from .space import (
    NormInterval,
    PNormSpace,
    conjugate_exponent,
    dual_norm,
    holder_extremizer,
    operator_norm,
    p_norm,
    pair,
)

__version__ = "0.3.0"
