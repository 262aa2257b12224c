"""Weight policies attached to evaluation points.

A policy maps the point (and its index) to the complex weight that
multiplies the function evaluation in the self-normalized mean.  All
policies are pure functions of ``(point, index)``, so blocks of weights
can be computed concurrently without coordination.  The product-regularized
policy's regularizer is a quantile family: its ``density`` is ``xi`` and its
``widths`` count the coordinates ``xi`` covers.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NegativeDensity, ValidationError, WeightOverflow, as_count, as_number

__all__ = [
    "WeightPolicy",
    "constant_policy",
    "density_policy",
    "boltzmann_policy",
    "oscillatory_policy",
    "product_regularized_policy",
]

# exp(x) overflows double precision just above x = 709.
_EXP_OVERFLOW = 700.0


def _phase(s: np.ndarray) -> np.ndarray:
    """``exp(-1j * s)`` for real phases ``s``, bit for bit: ``cos(s)`` and
    ``-sin(s)`` written into the real and imaginary parts of one array."""
    out = np.empty(np.shape(s), dtype=complex)
    np.cos(s, out=out.real)
    np.sin(s, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _action_values(action, points: np.ndarray) -> np.ndarray:
    """The action of each point, read from its first ``action.rank`` columns."""
    return np.asarray(action(points[:, : int(action.rank)]), dtype=np.float64)


def _covered(regularizer) -> int:
    """The number of leading coordinates a regularizer covers: one per
    width of its quantile family, which must have a ``density``."""
    if getattr(regularizer, "density", None) is None:
        family = getattr(regularizer, "family", type(regularizer).__name__)
        raise ValidationError("regularizer", f"the {family!r} family has no density")
    return len(regularizer.widths)


class WeightPolicy:
    """Rule assigning a weight to each evaluation point.

    ``rank`` is the number of leading coordinates the policy reads; the
    engine generates blocks at least that wide and the policy truncates
    before evaluating its payload.

    Two facts let the chunk loop skip block sums it already knows, so a
    policy may declare each only where it holds at every point:
    ``nonnegative``, every weight is real and >= 0, so the sum of absolute
    weights is the weight sum; ``unit``, every weight is exactly 1.0, so
    the weight sum is the block length and, for float64 or complex128
    values, the weighted sum is the sum of the values.  Both are false by default.
    """

    kind: str = "abstract"
    rank: int = 0
    nonnegative: bool = False
    unit: bool = False

    def weights(self, points: np.ndarray, start_index: int = 0) -> np.ndarray:
        """Weights for a block of points whose first row has the given index."""
        raise NotImplementedError


class ConstantPolicy(WeightPolicy):
    kind = "constant"
    rank = 0
    nonnegative = unit = True

    def weights(self, points: np.ndarray, start_index: int = 0) -> np.ndarray:
        return np.ones(len(points))


class DensityPolicy(WeightPolicy):
    kind = "density"
    nonnegative = True

    def __init__(self, density: Callable[[np.ndarray], np.ndarray], rank: int):
        self.density = density
        self.rank = as_count("rank", rank, 1)

    def weights(self, points: np.ndarray, start_index: int = 0) -> np.ndarray:
        w = np.asarray(self.density(points[:, : self.rank]), dtype=np.float64)
        if np.any(w < 0):
            raise NegativeDensity("density returned a negative value at a sampled point")
        return w


class BoltzmannPolicy(WeightPolicy):
    kind = "boltzmann"
    nonnegative = True

    def __init__(self, action):
        self.action = action
        self.rank = int(action.rank)

    def weights(self, points: np.ndarray, start_index: int = 0) -> np.ndarray:
        s = _action_values(self.action, points)
        if np.any(s < -_EXP_OVERFLOW):
            raise WeightOverflow(
                f"action below {-_EXP_OVERFLOW} would overflow exp(-action)"
            )
        # Underflow of huge positive actions to weight 0 is harmless.
        with np.errstate(under="ignore"):
            return np.exp(-s)


class OscillatoryPolicy(WeightPolicy):
    kind = "oscillatory"

    def __init__(self, action, index_phase: float = 0.0):
        self.action = action
        self.index_phase = as_number("index_phase", index_phase)
        self.rank = int(action.rank)

    def weights(self, points: np.ndarray, start_index: int = 0) -> np.ndarray:
        s = _action_values(self.action, points)
        if self.index_phase != 0.0:
            s = s + self.index_phase * np.arange(start_index, start_index + len(points),
                                                 dtype=np.float64)
        return _phase(s)


class ProductRegularizedPolicy(WeightPolicy):
    kind = "product-regularized"

    def __init__(self, regularizer, action):
        self.regularizer = regularizer
        self.covered = _covered(regularizer)
        self.action = action
        self.rank = max(self.covered, int(action.rank))

    def weights(self, points: np.ndarray, start_index: int = 0) -> np.ndarray:
        xi = np.asarray(self.regularizer.density(points[:, : self.covered]), dtype=np.float64)
        if np.any(xi < 0):
            raise NegativeDensity("regularizer returned a negative value")
        out = _phase(_action_values(self.action, points))
        out *= xi
        return out


def constant_policy() -> WeightPolicy:
    """Unit weights: the classical equal-weight mean."""
    return ConstantPolicy()


def density_policy(density: Callable[[np.ndarray], np.ndarray], rank: int) -> WeightPolicy:
    """Weights ``density(x)`` for a nonnegative density of the first
    ``rank`` coordinates; realizes the density-reweighted mean
    ``sum(phi f) / sum(phi)``."""
    return DensityPolicy(density, rank)


def boltzmann_policy(action) -> WeightPolicy:
    """Positive weights ``exp(-action(x))``; raises ``WeightOverflow``
    if the action drops below -700 (a single infinite weight would
    destroy the accumulator), while underflow to 0 is silent."""
    return BoltzmannPolicy(action)


def oscillatory_policy(action, index_phase: float = 0.0) -> WeightPolicy:
    """Unit-modulus weights ``exp(-i action(x))``.

    ``index_phase`` adds ``index_phase * n`` to the phase of point ``n``;
    with ``index_phase = pi`` the weights alternate in sign, the designed
    cancellation case for exercising the degeneracy guard.
    """
    return OscillatoryPolicy(action, index_phase)


def product_regularized_policy(regularizer, action) -> WeightPolicy:
    """Weights ``xi(x) * exp(-i action(x))`` carrying the integrable
    product regularizer in the weight instead of the sampling measure.

    The regularizer is a quantile family with a ``density`` and ``widths``,
    such as :func:`~diracmean.seq.normal_quantiles`; ``xi`` is that density
    on its first ``len(widths)`` coordinates.  A family without a density
    raises ``ValidationError`` naming ``regularizer``."""
    return ProductRegularizedPolicy(regularizer, action)
