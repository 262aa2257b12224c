"""Self-normalized weighted means of point evaluations.

Estimates normalized integrals as limits of complex-weighted barycenters
of evaluations along deterministic sequences: classical quasi-Monte
Carlo expectations of finite-rank functions, density-reweighted means,
and regularized oscillatory (Fresnel-type) integrals, all backed by
deterministic quadrature oracles.
"""

from .action import (
    ActionFunctional,
    fresnel_limit_scan,
    oscillatory_mean,
    quadratic_action,
)
from .cylinder import (
    EquidistributionReport,
    cylinder_function,
    hierarchy_certify,
    verify_cylinder,
)
from .errors import (
    CertificationError,
    CylinderViolation,
    DegenerateOracle,
    DiracMeanError,
    EmptyAccumulator,
    NegativeDensity,
    NoConvergence,
    NonFiniteInput,
    ParseError,
    QuantileDomain,
    ValidationError,
    WeightOverflow,
)
from .mean import (
    DEGENERATE,
    ConvergenceReport,
    MeanAccumulator,
    StoppingRule,
    merge,
    run,
    run_blocked,
)
from .oracle import (
    gaussian_expectation,
    normalized_expectation,
    tensor_quadrature,
)
from .seq import (
    PointSource,
    QuantileFamily,
    box_quantiles,
    convergent_source,
    halton_source,
    normal_quantiles,
    pseudorandom_source,
    pullback_source,
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
