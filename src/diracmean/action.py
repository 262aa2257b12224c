"""Action functionals, product regularizers, and oscillatory means.

The oscillatory mean estimates the normalized integral of ``f`` against
the phase density ``exp(-i S)`` after damping it with a positive,
integrable product regularizer ``xi``.  The regularizer is the quantile
family of its normalized measure: :func:`~diracmean.seq.normal_quantiles`
with widths ``sigma_k`` is the Gaussian regularizer
``prod_k exp(-x_k^2 / (2 sigma_k^2))``, its ``density``.  Two equivalent
routes are provided: pull the points back through the family's quantiles
and weight by ``exp(-i S)`` alone (the default), or keep near-Lebesgue
points on a box of half-width 8x the widest regularizer width and carry
``xi exp(-i S)`` in the weights.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import mean as mean_mod
from .cylinder import CylinderFunction, hierarchy_certify, verify_cylinder
from .errors import CertificationError, ValidationError, as_number, as_numbers
from .seq import (
    PointSource,
    QuantileFamily,
    _columns,
    box_quantiles,
    normal_quantiles,
    pullback_source,
)
from .weights import WeightPolicy, _covered, oscillatory_policy, product_regularized_policy

__all__ = [
    "ActionFunctional",
    "QuadraticAction",
    "quadratic_action",
    "oscillatory_mean",
    "fresnel_limit_scan",
]

_MAX_QUADRATIC_RANK = 16
# Points of the base-source uniformity certificate of oscillatory_mean.
_CERTIFICATION_SAMPLES = 10**4
# Half-width of the weight-borne route's box, in widest regularizer widths.
_BOX_WIDTHS = 8.0


class ActionFunctional:
    """Real scalar functional of the first ``rank`` coordinates."""

    rank: int = 0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class QuadraticAction(ActionFunctional):
    """``S(x) = x.A.x / 2 + b.x + c0`` with exactly symmetric ``A``.

    The form is evaluated column by column with elementwise operations
    only (no BLAS, no reductions), as
    ``sum_i x_i (sum_{j>=i} c_ij x_j + b_i) + c0`` with ``c_ii = a_ii / 2``
    and ``c_ij = a_ij``, compiled at construction; zero coefficients are
    skipped, so a diagonal matrix costs ``rank`` terms.  A point's action
    is therefore bitwise independent of the block it is evaluated in.
    """

    def __init__(self, matrix, linear=None, constant: float = 0.0):
        try:
            a = np.asarray(matrix, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValidationError("matrix", f"must be a square array of numbers, got {matrix!r}") \
                from None
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("matrix", f"must be square, got shape {a.shape}")
        if a.shape[0] > _MAX_QUADRATIC_RANK:
            raise ValidationError(
                "matrix", f"rank is capped at {_MAX_QUADRATIC_RANK}, got {a.shape[0]}")
        if not np.isfinite(a).all():
            raise ValidationError("matrix", "must be finite")
        if not np.array_equal(a, a.T):
            raise ValidationError("matrix", "must be exactly symmetric")
        self.matrix = a
        try:
            self.linear = (np.zeros(a.shape[0]) if linear is None
                           else np.asarray(linear, dtype=np.float64))
        except (TypeError, ValueError):
            self.linear = None
        if (self.linear is None or self.linear.shape != (a.shape[0],)
                or not np.isfinite(self.linear).all()):
            raise ValidationError(
                "linear", f"must be finite, of shape ({a.shape[0]},), got {linear!r}")
        self.constant = as_number("constant", constant)
        self.rank = a.shape[0]
        upper = np.triu(a)
        upper[np.diag_indices(self.rank)] /= 2.0
        # Row i as (i, [(j, c_ij) for nonzero c_ij, j >= i], b_i).
        self._rows = []
        for i in range(self.rank):
            terms = [(j, float(upper[i, j])) for j in range(i, self.rank) if upper[i, j] != 0.0]
            b = float(self.linear[i])
            if terms or b != 0.0:
                self._rows.append((i, terms, b))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        cols = _columns(points, self.rank)
        m = len(points)
        s = np.zeros(m)
        row = np.empty(m)
        tmp = np.empty(m)
        for i, terms, b in self._rows:
            if not terms:
                np.multiply(cols[i], b, out=row)
            else:
                np.multiply(cols[terms[0][0]], terms[0][1], out=row)
                for j, c in terms[1:]:
                    np.multiply(cols[j], c, out=tmp)
                    row += tmp
                if b != 0.0:
                    row += b
                row *= cols[i]
            s += row
        if self.constant != 0.0:
            s += self.constant
        return s


def quadratic_action(matrix, linear=None, constant: float = 0.0) -> QuadraticAction:
    """Quadratic action ``x.A.x / 2 + b.x + c0`` (rank <= 16); the family
    with verifiable closed-form oscillatory moments."""
    return QuadraticAction(matrix, linear, constant)


def _certify_base(base: PointSource, rank: int) -> None:
    ranks = tuple(range(1, min(rank, 3) + 1))
    reports = hierarchy_certify(base, ranks, _CERTIFICATION_SAMPLES)
    bad = [r for r in reports if not r.passed]
    if bad:
        worst = bad[0]
        raise CertificationError(
            f"base source failed the uniformity certificate at rank "
            f"{worst.rank}: statistic {worst.statistic:.3g} > threshold "
            f"{worst.threshold:.3g}"
        )


def _route(
    base: PointSource,
    action: ActionFunctional,
    regularizer: QuantileFamily,
    func_rank: int,
    route: str,
) -> tuple[PointSource, WeightPolicy]:
    """The source and policy of an oscillatory route over ``base``; see
    :func:`oscillatory_mean`.  The regularizer must cover the coordinates
    the action and the function (of rank ``func_rank``) read."""
    rank = max(int(action.rank), int(func_rank), 1)
    covered = _covered(regularizer)
    if covered < rank:
        raise ValidationError(
            "regularizer", f"covers {covered} coordinates but the action/function need {rank}")
    if route == "pullback":
        return pullback_source(base, regularizer), oscillatory_policy(action)
    if route == "weight-borne":
        box = box_quantiles(_BOX_WIDTHS * max(regularizer.widths))
        return pullback_source(base, box), product_regularized_policy(regularizer, action)
    raise ValidationError("route", f"{route!r} is not one of ['pullback', 'weight-borne']")


def oscillatory_mean(
    base: PointSource,
    action: ActionFunctional,
    regularizer: QuantileFamily,
    func: CylinderFunction,
    budget: int,
    rule: mean_mod.StoppingRule | None = None,
    *,
    route: str = "pullback",
    skip_certification: bool = False,
    block_size: int = 4096,
) -> mean_mod.ConvergenceReport:
    """Normalized oscillatory integral of ``func`` against
    ``xi * exp(-i action)``.

    ``regularizer`` is the quantile family of the normalized ``xi``
    measure, with a ``density`` (``xi``) and one width per coordinate it
    covers, e.g. ``normal_quantiles([1.0])`` for ``xi(x) = e^{-x^2/2}``;
    a family without a density raises ``ValidationError``.

    ``route="pullback"`` maps the cube points through the regularizer's
    quantiles and weights by ``exp(-i action)``;
    ``route="weight-borne"`` maps them to the uniform box
    ``[-L, L]^rank``, L = 8x the largest regularizer width, and carries
    ``xi * exp(-i action)`` in the weights.  Both estimate the same ratio
    up to box truncation.  Another box is
    ``run(pullback_source(base, box_quantiles(L)),
    product_regularized_policy(regularizer, action), func, ...)``.

    Unless ``skip_certification``, the base source must first pass the
    chi-square uniformity certificate (10^4 points, level 0.999, ranks 1
    to ``min(rank, 3)``), or ``CertificationError`` is raised.
    """
    src, pol = _route(base, action, regularizer, func.rank, route)
    verify_cylinder(func)
    if not skip_certification:
        _certify_base(base, max(int(action.rank), int(func.rank), 1))
    return mean_mod.run(src, pol, func, budget, rule, block_size)


def _scan_action(action: QuadraticAction) -> None:
    """Raise unless ``action`` is a rank-1 quadratic action with nonzero
    curvature, the case whose width scan tends to ``-i / a``."""
    if action.rank != 1 or action.matrix[0, 0] == 0.0:
        raise ValidationError(
            "action", "the width scan needs a rank-1 quadratic action with nonzero curvature")


def _scan_widths(widths: Sequence[float], field: str = "widths") -> tuple[float, ...]:
    """The scan's widths as floats, unless they are not finite, positive
    and strictly increasing; the error names ``field``."""
    ws = as_numbers(field, widths, 0.0)
    if any(b <= a for a, b in zip(ws, ws[1:])):
        raise ValidationError(field, f"must be strictly increasing, got {list(ws)}")
    return ws


def fresnel_limit_scan(
    base: PointSource,
    action: QuadraticAction,
    widths: Sequence[float],
    func: CylinderFunction | None = None,
    budget: int = 10**6,
    rule: mean_mod.StoppingRule | None = None,
    **kwargs,
) -> list[tuple[float, mean_mod.ConvergenceReport]]:
    """Sweep the regularizer width over an increasing list and estimate
    the second moment at each; as the width grows the estimates drift
    toward the unregularized value ``-i / a`` for curvature ``a``.

    Degeneracy at one width is reported in that width's entry rather
    than aborting the scan.
    """
    _scan_action(action)
    ws = _scan_widths(widths)
    if func is None:
        func = CylinderFunction(1, lambda x: x[:, 0] ** 2, label="x1^2")
    out = []
    for w in ws:
        report = oscillatory_mean(
            base, action, normal_quantiles([w] * max(func.rank, 1)), func,
            budget, rule, **kwargs,
        )
        out.append((w, report))
    return out
