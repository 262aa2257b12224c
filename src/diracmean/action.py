"""Action functionals, product regularizers, and oscillatory means.

The oscillatory mean estimates the normalized integral of ``f`` against
the phase density ``exp(-i S)`` after damping it with a positive,
integrable product regularizer ``xi``.  Two equivalent routes are
provided: pull the points back through the quantiles of the normalized
``xi`` measure and weight by ``exp(-i S)`` alone (the default), or keep
near-Lebesgue points on a finite box and carry ``xi exp(-i S)`` in the
weights.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import mean as mean_mod
from .cylinder import CylinderFunction, hierarchy_certify, verify_cylinder
from .errors import (
    AsymmetricMatrix,
    CertificationError,
    NonpositiveWidth,
    RankMismatch,
)
from .seq import (
    BoxQuantiles,
    NormalQuantiles,
    PointSource,
    pullback_source,
)
from .weights import oscillatory_policy, product_regularized_policy

__all__ = [
    "ActionFunctional",
    "QuadraticAction",
    "CustomAction",
    "quadratic_action",
    "Regularizer",
    "gaussian_regularizer",
    "oscillatory_mean",
    "fresnel_limit_scan",
]

_MAX_QUADRATIC_RANK = 16
_TRANSPOSE_ROWS = 4096


def _columns(points: np.ndarray, rank: int) -> np.ndarray:
    """The first ``rank`` columns as a C-contiguous ``(rank, m)`` array.

    A column-major block (every source block) is returned as a view,
    without a copy, so callers must not write into it.  Any other layout
    is copied ``_TRANSPOSE_ROWS`` rows at a time: a single transposing
    pass over a large row-major block fetches each source cache line
    ``rank`` times, and measured 2-2.5x slower at 65536 x 8.
    """
    cols = points[:, :rank].T
    if cols.flags.c_contiguous:
        return cols
    cols = np.empty((rank, len(points)))
    for k in range(0, len(points), _TRANSPOSE_ROWS):
        cols[:, k : k + _TRANSPOSE_ROWS] = points[k : k + _TRANSPOSE_ROWS, :rank].T
    return cols


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
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if a.shape[0] > _MAX_QUADRATIC_RANK:
            raise ValueError(f"quadratic rank is capped at {_MAX_QUADRATIC_RANK}")
        if np.max(np.abs(a - a.T)) != 0.0:
            raise AsymmetricMatrix("quadratic matrix must be exactly symmetric")
        self.matrix = a
        self.linear = (np.zeros(a.shape[0]) if linear is None
                       else np.asarray(linear, dtype=np.float64))
        if self.linear.shape != (a.shape[0],):
            raise ValueError("linear term must match the matrix dimension")
        self.constant = float(constant)
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


class CustomAction(ActionFunctional):
    """User-supplied scalar functional; accepted but only property-checked
    (no closed-form value verification exists for it)."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], rank: int, label: str = ""):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        self.fn = fn
        self.rank = int(rank)
        self.label = label

    def __call__(self, points: np.ndarray) -> np.ndarray:
        if self.rank == 0:
            return np.zeros(len(points)) + self.fn(points[:, :0])
        return np.asarray(self.fn(points[:, : self.rank]), dtype=np.float64)


def quadratic_action(matrix, linear=None, constant: float = 0.0) -> QuadraticAction:
    """Quadratic action ``x.A.x / 2 + b.x + c0`` (rank <= 16); the family
    with verifiable closed-form oscillatory moments."""
    return QuadraticAction(matrix, linear, constant)


class Regularizer:
    """Positive integrable product function ``xi(x) = prod_k xi_k(x_k)``
    whose per-coordinate normalized measures have known quantiles."""

    family: str = "abstract"
    rank: int = 0

    def value(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def factor(self, k: int, t: np.ndarray) -> np.ndarray:
        """The single-coordinate factor ``xi_k``."""
        raise NotImplementedError

    def quantiles(self):
        """Quantile family of the normalized product measure ``xi / Z``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class GaussianRegularizer(Regularizer):
    family = "gaussian"

    def __init__(self, widths: float | Sequence[float]):
        ws = [widths] if np.isscalar(widths) else list(widths)
        if not ws or any(w <= 0 for w in ws):
            raise NonpositiveWidth("regularizer widths must be positive")
        self.widths = tuple(float(w) for w in ws)
        self.rank = len(self.widths)

    def value(self, points: np.ndarray) -> np.ndarray:
        """``exp(-sum_k (x_k / sigma_k)^2 / 2)`` from scaled columns, summed
        in coordinate order; an overflowing square gives the exact limit 0."""
        cols = _columns(points, self.rank)
        with np.errstate(over="ignore", under="ignore"):
            q = np.divide(cols[0], self.widths[0])
            q *= q
            tmp = np.empty_like(q)
            for col, width in zip(cols[1:], self.widths[1:]):
                np.divide(col, width, out=tmp)
                tmp *= tmp
                q += tmp
            q *= -0.5
            return np.exp(q, out=q)

    def factor(self, k: int, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-0.5 * (np.asarray(t) / self.widths[k]) ** 2)

    def quantiles(self) -> NormalQuantiles:
        return NormalQuantiles(self.widths)

    def to_dict(self) -> dict:
        return {"family": "gaussian", "widths": list(self.widths)}


def gaussian_regularizer(widths: float | Sequence[float]) -> GaussianRegularizer:
    """Product of centered Gaussian factors ``exp(-t^2 / (2 sigma_k^2))``;
    its normalized measure is the centered normal with those widths."""
    return GaussianRegularizer(widths)


def _certify_base(base: PointSource, rank: int, samples: int, level: float) -> None:
    ranks = tuple(range(1, min(rank, 3) + 1))
    reports = hierarchy_certify(base, ranks, samples, level)
    bad = [r for r in reports if not r.passed]
    if bad:
        worst = bad[0]
        raise CertificationError(
            f"base source failed the uniformity certificate at rank "
            f"{worst.rank}: statistic {worst.statistic:.3g} > threshold "
            f"{worst.threshold:.3g}"
        )


def oscillatory_mean(
    base: PointSource,
    action: ActionFunctional,
    regularizer: Regularizer,
    func: CylinderFunction,
    budget: int,
    rule: mean_mod.StoppingRule | None = None,
    *,
    route: str = "pullback",
    box_half_width: float | None = None,
    skip_certification: bool = False,
    certification_samples: int = 10**4,
    certification_level: float = 0.999,
    trace_stride: int = 1000,
    block_size: int = 4096,
) -> mean_mod.ConvergenceReport:
    """Normalized oscillatory integral of ``func`` against
    ``xi * exp(-i action)``.

    ``route="pullback"`` maps the cube points through the quantiles of
    the normalized regularizer measure and weights by ``exp(-i action)``;
    ``route="weight-borne"`` maps them to the uniform box
    ``[-L, L]^rank`` (L defaults to 8x the largest regularizer width) and
    carries ``xi * exp(-i action)`` in the weights.  Both estimate the
    same ratio up to box truncation.
    """
    rank = max(int(action.rank), int(func.rank), 1)
    if regularizer.rank < rank:
        raise RankMismatch(
            f"regularizer covers {regularizer.rank} coordinates but the "
            f"action/function need {rank}"
        )
    verify_cylinder(func)
    if not skip_certification:
        _certify_base(base, rank, certification_samples, certification_level)
    if route == "pullback":
        src = pullback_source(base, regularizer.quantiles())
        pol = oscillatory_policy(action)
    elif route == "weight-borne":
        if box_half_width is None:
            widths = getattr(regularizer, "widths", (1.0,))
            box_half_width = 8.0 * max(widths)
        src = pullback_source(base, BoxQuantiles(box_half_width))
        pol = product_regularized_policy(regularizer, action)
    else:
        raise ValueError(f"unknown route {route!r}")
    return mean_mod.run(src, pol, func, budget, rule, trace_stride, block_size)


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
    if action.rank != 1:
        raise RankMismatch("the width scan is defined for 1D quadratic actions")
    curvature = float(action.matrix[0, 0])
    if curvature == 0.0:
        raise ValueError("curvature must be nonzero")
    ws = [float(w) for w in widths]
    if any(b <= a for a, b in zip(ws, ws[1:])):
        raise ValueError("widths must be strictly increasing")
    if func is None:
        func = CylinderFunction(1, lambda x: x[:, 0] ** 2, label="x1^2")
    out = []
    for w in ws:
        report = oscillatory_mean(
            base, action, gaussian_regularizer([w] * max(func.rank, 1)), func,
            budget, rule, **kwargs,
        )
        out.append((w, report))
    return out
