"""Self-normalized weighted means of point evaluations.

Estimates normalized integrals as limits of complex-weighted barycenters
of evaluations along deterministic sequences: classical quasi-Monte
Carlo expectations of finite-rank functions, density-reweighted means,
and regularized oscillatory (Fresnel-type) integrals, all backed by
deterministic quadrature oracles.
"""

from .action import (
    ActionFunctional,
    CustomAction,
    QuadraticAction,
    Regularizer,
    fresnel_limit_scan,
    gaussian_regularizer,
    oscillatory_mean,
    quadratic_action,
)
from .cylinder import (
    CylinderFunction,
    ProjectionHierarchy,
    cylinder_function,
    hierarchy_certify,
    verify_cylinder,
)
from .errors import (
    AsymmetricMatrix,
    BadGenerator,
    CertificationError,
    CylinderViolation,
    DegenerateOracle,
    DiracMeanError,
    EmptyAccumulator,
    InsufficientSample,
    NegativeDensity,
    NoConvergence,
    NonFiniteInput,
    NonpositiveWidth,
    ParseError,
    QuantileDomain,
    RankExceeded,
    RankMismatch,
    RankUnsupported,
    UnsupportedMoment,
    ValidationError,
    WeightOverflow,
)
from .mean import (
    DEGENERATE,
    ConvergenceReport,
    Degenerate,
    MeanAccumulator,
    StoppingRule,
    TracePoint,
    merge,
    run,
    run_blocked,
)
from .oracle import (
    QuadratureSpec,
    complex_gaussian_moment,
    gaussian_domain,
    normalized_expectation,
    tensor_quadrature,
)
from .seq import (
    EquidistributionReport,
    Point,
    PointSource,
    QuantileFamily,
    box_quantiles,
    convergent_source,
    equidistribution_statistic,
    halton_source,
    normal_quantiles,
    pseudorandom_source,
    pullback_source,
    star_discrepancy,
    uniform_quantiles,
    weyl_source,
)
from .weights import (
    WeightPolicy,
    boltzmann_policy,
    constant_policy,
    density_policy,
    oscillatory_policy,
    product_regularized_policy,
)

__version__ = "0.1.0"
